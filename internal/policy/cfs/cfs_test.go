package cfs

import (
	"testing"

	"skyloft/internal/policy"
	"skyloft/internal/sched"
	"skyloft/internal/simtime"
)

// newTask returns a thread the policy has initialised.
func newTask(p *Policy, id int) *sched.Thread {
	t := &sched.Thread{ID: id, LastCPU: -1}
	p.TaskInit(t)
	return t
}

// runOn enqueues t as new on cpu and picks it, as an engine does.
func runOn(t *testing.T, p *Policy, cpu int, th *sched.Thread) {
	t.Helper()
	p.TaskEnqueue(cpu, th, policy.EnqNew)
	if got := p.TaskDequeue(cpu); got != th {
		t.Fatalf("TaskDequeue = %v, want %v", got, th)
	}
	th.LastCPU = cpu
}

// TestSleeperCreditSeesEveryRun checks wakeup placement against the CPU's
// vruntime high-water: it counts the CPU time of a task that blocked
// there and of the task running there now, whether or not a tick has
// folded it yet.
func TestSleeperCreditSeesEveryRun(t *testing.T) {
	const latency = 100 * simtime.Microsecond
	const ran = 1000 * simtime.Microsecond
	credit := float64(latency) / 2
	for _, tc := range []struct {
		name  string
		leave func(p *Policy, a *sched.Thread) // what a does after running
	}{
		{"blocked", func(p *Policy, a *sched.Thread) { p.TaskBlock(0, a) }},
		{"running", func(p *Policy, a *sched.Thread) {}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := New(Params{MinGranularity: 1, SchedLatency: latency})
			p.SchedInit(1)
			a := newTask(p, 1)
			runOn(t, p, 0, a)
			a.CPUTime = ran
			tc.leave(p, a)

			b := newTask(p, 2)
			p.TaskEnqueue(0, b, policy.EnqWakeup)
			if got, want := td(b).vruntime, float64(ran)-credit; got != want {
				t.Fatalf("woken vruntime = %v, want high-water %v minus credit %v", got, float64(ran), credit)
			}
		})
	}
}

// TestCheckPreemptWakeGranularity checks the wakeup-preemption boundary:
// a lead equal to the granularity keeps curr, 1 ns more preempts it.
func TestCheckPreemptWakeGranularity(t *testing.T) {
	const gran = 1000 * simtime.Nanosecond
	for _, tc := range []struct {
		lead simtime.Duration
		want bool
	}{
		{gran - 1, false},
		{gran, false},
		{gran + 1, true},
	} {
		p := New(Params{MinGranularity: 1, SchedLatency: 1, WakeupGranularity: gran})
		p.SchedInit(1)
		curr := newTask(p, 1)
		runOn(t, p, 0, curr)
		curr.CPUTime = 5 * gran // folded by the check itself
		woken := newTask(p, 2)
		td(woken).vruntime = float64(5*gran - tc.lead)
		p.TaskEnqueue(0, woken, policy.EnqPreempted)
		if got := p.CheckPreemptWake(0, curr, woken); got != tc.want {
			t.Errorf("lead %v over granularity %v: preempt = %v, want %v", tc.lead, gran, got, tc.want)
		}
	}
}
