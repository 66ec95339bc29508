// Package edf is an Earliest Deadline First policy — not in the paper's
// evaluation, but exactly the kind of scheduler §3.4 argues the Table 2
// operations make trivial: tasks acquire an absolute deadline when they
// become runnable (arrival + relative deadline) and the earliest deadline
// runs; the user timer preempts the current task as soon as a queued task
// with an earlier deadline appears. ~60 lines.
package edf

import (
	"skyloft/internal/policy"
	"skyloft/internal/sched"
	"skyloft/internal/simtime"
)

// Policy implements policy.Policy.
type Policy struct {
	// Relative is the deadline offset applied at wakeup; per-task
	// overrides go through SetRelative.
	Relative simtime.Duration
	rq       [][]*sched.Thread
	placer   policy.Placer
}

type taskData struct {
	relative simtime.Duration
	deadline simtime.Time
}

func td(t *sched.Thread) *taskData { return t.PolData.(*taskData) }

// New returns an EDF policy with the given default relative deadline.
func New(relative simtime.Duration) *Policy {
	if relative <= 0 {
		panic("edf: relative deadline must be positive")
	}
	return &Policy{Relative: relative}
}

func (p *Policy) Name() string { return "skyloft-edf" }

func (p *Policy) SchedInit(ncpu int) { p.rq = make([][]*sched.Thread, ncpu) }

func (p *Policy) TaskInit(t *sched.Thread) {
	policy.ResetData[taskData](t).relative = p.Relative
}

func (p *Policy) TaskTerminate(t *sched.Thread) {}

// SetRelative overrides one task's relative deadline (call after spawn).
func (p *Policy) SetRelative(t *sched.Thread, d simtime.Duration) {
	td(t).relative = d
}

func (p *Policy) TaskEnqueue(cpu int, t *sched.Thread, flags policy.EnqueueFlags) {
	d := td(t)
	if flags&(policy.EnqNew|policy.EnqWakeup) != 0 {
		// A new job: deadline anchors at its arrival.
		d.deadline = t.EnqueuedAt + simtime.Time(d.relative)
	}
	p.rq[cpu] = append(p.rq[cpu], t)
}

func (p *Policy) TaskDequeue(cpu int) *sched.Thread {
	q := p.rq[cpu]
	if len(q) == 0 {
		return nil
	}
	best := 0
	for i, t := range q {
		if td(t).deadline < td(q[best]).deadline {
			best = i
		}
	}
	t := q[best]
	p.rq[cpu] = append(q[:best], q[best+1:]...)
	return t
}

func (p *Policy) PickCPU(t *sched.Thread, idle []bool) int {
	return p.placer.Pick(t, idle)
}

// SchedTimerTick preempts whenever a queued task's deadline beats the
// current task's.
func (p *Policy) SchedTimerTick(cpu int, curr *sched.Thread, ranFor simtime.Duration) bool {
	dl := td(curr).deadline
	for _, t := range p.rq[cpu] {
		if td(t).deadline < dl {
			return true
		}
	}
	return false
}

func (p *Policy) SchedBalance(cpu int) *sched.Thread {
	// Steal the globally earliest deadline from any other queue.
	bestCPU, bestIdx := -1, -1
	var bestDl simtime.Time
	for v := range p.rq {
		if v == cpu {
			continue
		}
		for i, t := range p.rq[v] {
			if bestCPU == -1 || td(t).deadline < bestDl {
				bestCPU, bestIdx, bestDl = v, i, td(t).deadline
			}
		}
	}
	if bestCPU == -1 {
		return nil
	}
	q := p.rq[bestCPU]
	t := q[bestIdx]
	p.rq[bestCPU] = append(q[:bestIdx], q[bestIdx+1:]...)
	return t
}
