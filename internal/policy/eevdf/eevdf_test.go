package eevdf

import (
	"testing"

	"skyloft/internal/policy"
	"skyloft/internal/sched"
	"skyloft/internal/simtime"
)

const slice = 100 * simtime.Microsecond

// newTask returns a thread the policy has initialised.
func newTask(p *Policy, id int) *sched.Thread {
	t := &sched.Thread{ID: id, LastCPU: -1}
	p.TaskInit(t)
	return t
}

// runOn enqueues t on cpu with flags and picks it, as an engine does.
func runOn(t *testing.T, p *Policy, cpu int, th *sched.Thread, flags policy.EnqueueFlags) {
	t.Helper()
	p.TaskEnqueue(cpu, th, flags)
	if got := p.TaskDequeue(cpu); got != th {
		t.Fatalf("TaskDequeue = %v, want %v", got, th)
	}
	th.LastCPU = cpu
}

// TestWakeupPlacement checks where a woken task with no lag lands: at the
// average that counts the running task, or at the CPU's vruntime
// high-water when the CPU has no task at all.
func TestWakeupPlacement(t *testing.T) {
	const ran = 1000 * simtime.Microsecond
	for _, tc := range []struct {
		name  string
		leave func(p *Policy, a *sched.Thread) // what a does after running
	}{
		// The queue is empty, but a still runs: the average is a's
		// vruntime.
		{"beside the running task", func(p *Policy, a *sched.Thread) {}},
		// a blocked with no lag: the CPU is empty, and its high-water
		// is a's vruntime.
		{"on an empty CPU", func(p *Policy, a *sched.Thread) { p.TaskBlock(0, a) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := New(Params{BaseSlice: slice})
			p.SchedInit(1)
			a := newTask(p, 1)
			runOn(t, p, 0, a, policy.EnqNew)
			a.CPUTime = ran
			tc.leave(p, a)

			b := newTask(p, 2)
			p.TaskEnqueue(0, b, policy.EnqWakeup)
			if got := td(b).vruntime; got != float64(ran) {
				t.Fatalf("woken vruntime = %v, want %v", got, float64(ran))
			}
			if got := td(b).deadline; got != float64(ran+slice) {
				t.Fatalf("woken deadline = %v, want %v", got, float64(ran+slice))
			}
		})
	}
}

// TestPutBackKeepsDeadline checks that only placement and slice expiry set
// a deadline: a task put back by a yield, or by a preemption before its
// slice ran out, keeps the one it had.
func TestPutBackKeepsDeadline(t *testing.T) {
	for _, flags := range []policy.EnqueueFlags{policy.EnqYield, policy.EnqPreempted} {
		p := New(Params{BaseSlice: slice})
		p.SchedInit(1)
		a := newTask(p, 1)
		runOn(t, p, 0, a, policy.EnqNew)
		want := td(a).deadline
		a.CPUTime = slice / 3
		p.TaskEnqueue(0, a, flags)
		if got := td(a).deadline; got != want {
			t.Errorf("flags %d: deadline %v after put-back, want %v", flags, got, want)
		}
		if got := td(a).vruntime; got != float64(slice/3) {
			t.Errorf("flags %d: vruntime %v, want the run folded in (%v)", flags, got, float64(slice/3))
		}
	}
}

// TestCheckPreemptWakeNeedsBoth checks that a woken task preempts only
// when it is eligible and its deadline is earlier than the running task's.
func TestCheckPreemptWakeNeedsBoth(t *testing.T) {
	const v, dl = 1000, 1100 // the running task's vruntime and deadline
	for _, tc := range []struct {
		name            string
		wokenV, wokenDl float64
		want            bool
	}{
		{"eligible and sooner", v - 100, dl - 50, true},
		{"eligible, later deadline", v - 100, dl + 50, false},
		{"ineligible, sooner deadline", v + 100, dl - 50, false},
	} {
		p := New(Params{BaseSlice: slice})
		p.SchedInit(1)
		curr := newTask(p, 1)
		runOn(t, p, 0, curr, policy.EnqNew)
		td(curr).vruntime, td(curr).deadline = v, dl
		woken := newTask(p, 2)
		p.TaskEnqueue(0, woken, policy.EnqPreempted)
		td(woken).vruntime, td(woken).deadline = tc.wokenV, tc.wokenDl
		if got := p.CheckPreemptWake(0, curr, woken); got != tc.want {
			t.Errorf("%s: preempt = %v, want %v", tc.name, got, tc.want)
		}
	}
}
