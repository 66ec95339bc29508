// Package eevdf is Earliest Eligible Virtual Deadline First (§5.1), the
// principled replacement for CFS's heuristics adopted by Linux v6.6: each
// task carries a lag (its fair-share service deficit) and a virtual
// deadline; the scheduler runs the eligible task (lag >= 0) with the
// earliest deadline. It is the tree's one EEVDF: Skyloft runs it from
// user-space timer interrupts, and the simulated kernel (internal/ksched)
// runs it as its EEVDF class. Table 4 credits Skyloft's EEVDF with 579
// lines against 7,102 in Linux v6.8.
package eevdf

import (
	"skyloft/internal/policy"
	"skyloft/internal/sched"
	"skyloft/internal/simtime"
)

// Params holds the EEVDF tunables of Table 5.
type Params struct {
	// BaseSlice is the request size used to compute virtual deadlines
	// (Skyloft configuration: 12.5 µs).
	BaseSlice simtime.Duration
}

// DefaultParams is the paper's Skyloft EEVDF configuration.
func DefaultParams() Params { return Params{BaseSlice: 12500} }

// Policy implements policy.Policy, policy.BlockNotifier and
// policy.WakePreempter.
type Policy struct {
	P      Params
	rq     []runqueue
	placer policy.Placer
}

type runqueue struct {
	tasks []*sched.Thread
	// high is the largest vruntime folded on this CPU, the zero point of
	// a CPU with no task.
	high float64
	// curr is the task running here: the one TaskDequeue returned, until
	// it is enqueued, blocked or terminated.
	curr *sched.Thread
}

type taskData struct {
	vruntime float64
	deadline float64
	lag      float64
	seenCPU  simtime.Duration // CPUTime already folded into vruntime
	on       int              // 1 + the CPU whose curr this task is; 0 if none
}

func td(t *sched.Thread) *taskData { return t.PolData.(*taskData) }

// New returns an EEVDF policy.
func New(p Params) *Policy {
	if p.BaseSlice <= 0 {
		panic("eevdf: BaseSlice must be positive")
	}
	return &Policy{P: p}
}

func (p *Policy) Name() string { return "skyloft-eevdf" }

func (p *Policy) SchedInit(ncpu int) { p.rq = make([]runqueue, ncpu) }

func (p *Policy) TaskInit(t *sched.Thread) { policy.ResetData[taskData](t) }

func (p *Policy) TaskTerminate(t *sched.Thread) {
	p.fold(t)
	p.leave(t)
}

// fold charges the CPU time t has used since its last fold to its vruntime
// and to the high-water of the CPU it ran on.
func (p *Policy) fold(t *sched.Thread) {
	d := td(t)
	delta := t.CPUTime - d.seenCPU
	if delta <= 0 {
		return
	}
	d.seenCPU = t.CPUTime
	d.vruntime += float64(delta)
	if rq := &p.rq[t.LastCPU]; d.vruntime > rq.high {
		rq.high = d.vruntime
	}
}

// run records t as cpu's running task. A CPU that already has one is being
// stolen from: its record stays, and t gets one when it is next picked.
func (p *Policy) run(cpu int, t *sched.Thread) {
	if rq := &p.rq[cpu]; rq.curr == nil {
		rq.curr = t
		td(t).on = cpu + 1
	}
}

// leave ends t's record as a CPU's running task.
func (p *Policy) leave(t *sched.Thread) {
	if d := td(t); d.on > 0 {
		p.rq[d.on-1].curr = nil
		d.on = 0
	}
}

// avg is the zero point for eligibility (Linux's avg_vruntime): the mean
// vruntime of cpu's queued tasks and its running task, folded first, or
// the CPU's high-water when it has neither.
func (p *Policy) avg(cpu int) float64 {
	rq := &p.rq[cpu]
	var sum float64
	for _, t := range rq.tasks {
		sum += td(t).vruntime
	}
	n := len(rq.tasks)
	if rq.curr != nil {
		p.fold(rq.curr)
		sum += td(rq.curr).vruntime
		n++
	}
	if n == 0 {
		return rq.high
	}
	return sum / float64(n)
}

func (p *Policy) TaskEnqueue(cpu int, t *sched.Thread, flags policy.EnqueueFlags) {
	p.fold(t)
	p.leave(t)
	if flags&(policy.EnqWakeup|policy.EnqNew) != 0 {
		// Place relative to the current average, preserving the lag
		// saved at block time — the defining property of EEVDF placement.
		d := td(t)
		d.vruntime = p.avg(cpu) - d.lag
		d.deadline = d.vruntime + float64(p.P.BaseSlice)
	}
	p.rq[cpu].tasks = append(p.rq[cpu].tasks, t)
}

// TaskDequeue picks the earliest virtual deadline among eligible tasks.
func (p *Policy) TaskDequeue(cpu int) *sched.Thread {
	rq := &p.rq[cpu]
	if len(rq.tasks) == 0 {
		return nil
	}
	avg := p.avg(cpu)
	best := -1
	for i, t := range rq.tasks {
		d := td(t)
		if d.vruntime > avg+1e-9 {
			continue
		}
		if best == -1 || d.deadline < td(rq.tasks[best]).deadline {
			best = i
		}
	}
	if best == -1 {
		// Nothing eligible (transient): take the smallest vruntime.
		best = 0
		for i, t := range rq.tasks {
			if td(t).vruntime < td(rq.tasks[best]).vruntime {
				best = i
			}
		}
	}
	t := rq.tasks[best]
	rq.tasks = append(rq.tasks[:best], rq.tasks[best+1:]...)
	p.run(cpu, t)
	return t
}

func (p *Policy) PickCPU(t *sched.Thread, idle []bool) int {
	return p.placer.Pick(t, idle)
}

// SchedTimerTick preempts the running task once it has used its base slice
// and a competitor is queued; its deadline advances so it re-queues behind
// tasks it has outrun.
func (p *Policy) SchedTimerTick(cpu int, curr *sched.Thread, slice simtime.Duration) bool {
	p.fold(curr)
	if len(p.rq[cpu].tasks) == 0 || slice < p.P.BaseSlice {
		return false
	}
	d := td(curr)
	d.deadline = d.vruntime + float64(p.P.BaseSlice)
	return true
}

func (p *Policy) SchedBalance(cpu int) *sched.Thread { return nil }

// TaskBlock saves the blocking task's lag against the average (task_block
// in Table 2), bounded to ±2 slices as in the kernel implementation.
func (p *Policy) TaskBlock(cpu int, t *sched.Thread) {
	p.fold(t)
	d := td(t)
	d.lag = p.avg(cpu) - d.vruntime
	limit := 2 * float64(p.P.BaseSlice)
	if d.lag > limit {
		d.lag = limit
	}
	if d.lag < -limit {
		d.lag = -limit
	}
	p.leave(t)
}

// CheckPreemptWake preempts curr when the woken task is eligible and has
// the earlier deadline.
func (p *Policy) CheckPreemptWake(cpu int, curr, woken *sched.Thread) bool {
	w := td(woken)
	return w.vruntime <= p.avg(cpu)+1e-9 && w.deadline < td(curr).deadline
}
