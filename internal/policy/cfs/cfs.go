// Package cfs is the Completely Fair Scheduler (§5.1): per-CPU
// virtual-runtime ordering, a latency target divided across runnable tasks
// (floored at min_granularity), sleeper credit on wakeup, and wakeup
// preemption past a granularity. It is the tree's one CFS: Skyloft runs it
// from 100 kHz user-space timer interrupts, and the simulated kernel
// (internal/ksched) runs it as its CFS and SCHED_BATCH classes from a
// 250–1000 Hz tick, which is where the two-orders-of-magnitude
// wakeup-latency gap in Fig. 5 comes from.
package cfs

import (
	"skyloft/internal/policy"
	"skyloft/internal/sched"
	"skyloft/internal/simtime"
)

// Params mirror the CFS tunables of Table 5.
type Params struct {
	MinGranularity    simtime.Duration // sched_min_granularity
	SchedLatency      simtime.Duration // sched_latency
	WakeupGranularity simtime.Duration // sched_wakeup_granularity
}

// DefaultParams is the paper's Skyloft CFS configuration: 12.5 µs
// granularity, 50 µs latency target.
func DefaultParams() Params {
	return Params{MinGranularity: 12500, SchedLatency: 50 * simtime.Microsecond}
}

// Policy implements policy.Policy, policy.BlockNotifier and
// policy.WakePreempter.
type Policy struct {
	P      Params
	rq     []runqueue
	placer policy.Placer
}

type runqueue struct {
	tasks []*sched.Thread
	// high is the largest vruntime folded on this CPU, the base of
	// wakeup placement.
	high float64
	// curr is the task running here: the one TaskDequeue returned, until
	// it is enqueued, blocked or terminated.
	curr *sched.Thread
}

// taskData is the policy-defined per-task field.
type taskData struct {
	vruntime float64
	seenCPU  simtime.Duration // CPUTime already folded into vruntime
	on       int              // 1 + the CPU whose curr this task is; 0 if none
}

func td(t *sched.Thread) *taskData { return t.PolData.(*taskData) }

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

// New returns a CFS policy.
func New(p Params) *Policy { return &Policy{P: p} }

func (p *Policy) Name() string { return "skyloft-cfs" }

func (p *Policy) SchedInit(ncpu int) { p.rq = make([]runqueue, ncpu) }

func (p *Policy) TaskInit(t *sched.Thread) { policy.ResetData[taskData](t) }

func (p *Policy) TaskTerminate(t *sched.Thread) {
	p.fold(t)
	p.leave(t)
}

func (p *Policy) TaskEnqueue(cpu int, t *sched.Thread, flags policy.EnqueueFlags) {
	p.fold(t)
	p.leave(t)
	rq := &p.rq[cpu]
	if flags&(policy.EnqWakeup|policy.EnqNew) != 0 {
		// place_entity: sleeper credit of at most half the latency
		// target, never moving vruntime backwards. The high-water counts
		// the running task's time up to now.
		if rq.curr != nil {
			p.fold(rq.curr)
		}
		if v := rq.high - float64(p.P.SchedLatency)/2; v > td(t).vruntime {
			td(t).vruntime = v
		}
	}
	rq.tasks = append(rq.tasks, t)
}

// TaskDequeue picks the leftmost (smallest vruntime) task.
func (p *Policy) TaskDequeue(cpu int) *sched.Thread {
	rq := &p.rq[cpu]
	if len(rq.tasks) == 0 {
		return nil
	}
	best := 0
	for i, t := range rq.tasks {
		if td(t).vruntime < td(rq.tasks[best]).vruntime {
			best = i
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

// SchedTimerTick preempts the running task once it has used its ideal
// slice and a competitor is queued.
func (p *Policy) SchedTimerTick(cpu int, curr *sched.Thread, slice simtime.Duration) bool {
	return len(p.rq[cpu].tasks) > 0 && slice >= p.idealSlice(cpu)
}

// idealSlice is sched_slice(): the latency target divided across the
// runnable tasks, floored at min_granularity.
func (p *Policy) idealSlice(cpu int) simtime.Duration {
	nr := len(p.rq[cpu].tasks) + 1
	s := p.P.SchedLatency / simtime.Duration(nr)
	if s < p.P.MinGranularity {
		s = p.P.MinGranularity
	}
	return s
}

func (p *Policy) SchedBalance(cpu int) *sched.Thread { return nil }

// TaskBlock folds the suspending task's run, so later placement on its CPU
// sees it.
func (p *Policy) TaskBlock(cpu int, t *sched.Thread) {
	p.fold(t)
	p.leave(t)
}

// CheckPreemptWake preempts curr when its vruntime leads the woken task's
// by more than the wakeup granularity.
func (p *Policy) CheckPreemptWake(cpu int, curr, woken *sched.Thread) bool {
	p.fold(curr)
	return td(curr).vruntime-td(woken).vruntime > float64(p.P.WakeupGranularity)
}
