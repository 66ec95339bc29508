// Package cfs is Skyloft's reimplementation of the Completely Fair
// Scheduler (§5.1): per-CPU virtual-runtime ordering, a latency target
// divided across runnable tasks (floored at min_granularity), and sleeper
// credit on wakeup — but driven by 100 kHz user-space timer interrupts
// rather than a 250–1000 Hz kernel tick, which is where the two-orders-of-
// magnitude wakeup-latency win in Fig. 5 comes from.
package cfs

import (
	"skyloft/internal/core"
	"skyloft/internal/policy"
	"skyloft/internal/sched"
	"skyloft/internal/simtime"
)

// Params mirror the CFS tunables of Table 5.
type Params struct {
	MinGranularity simtime.Duration
	SchedLatency   simtime.Duration
}

// DefaultParams is the paper's Skyloft CFS configuration: 12.5 µs
// granularity, 50 µs latency target.
func DefaultParams() Params {
	return Params{MinGranularity: 12500, SchedLatency: 50 * simtime.Microsecond}
}

// Policy implements core.Policy.
type Policy struct {
	P      Params
	rq     []runqueue
	placer policy.Placer
}

type runqueue struct {
	tasks       []*sched.Thread
	minVruntime float64
}

// taskData is the policy-defined per-task field.
type taskData struct {
	vruntime  float64
	sliceUsed simtime.Duration
	seenCPU   simtime.Duration // CPUTime already folded into vruntime
}

func td(t *sched.Thread) *taskData { return t.PolData.(*taskData) }

// fold charges any CPU time consumed since the last policy observation to
// the task's virtual runtime and slice usage.
func (p *Policy) fold(cpu int, t *sched.Thread) {
	d := td(t)
	delta := t.CPUTime - d.seenCPU
	if delta <= 0 {
		return
	}
	d.seenCPU = t.CPUTime
	d.vruntime += float64(delta)
	d.sliceUsed += delta
	if rq := &p.rq[cpu]; d.vruntime > rq.minVruntime {
		rq.minVruntime = d.vruntime
	}
}

// New returns a CFS policy.
func New(p Params) *Policy { return &Policy{P: p} }

func (p *Policy) Name() string { return "skyloft-cfs" }

func (p *Policy) SchedInit(ncpu int) { p.rq = make([]runqueue, ncpu) }

func (p *Policy) TaskInit(t *sched.Thread) { policy.ResetData[taskData](t) }

func (p *Policy) TaskTerminate(t *sched.Thread) {}

func (p *Policy) TaskEnqueue(cpu int, t *sched.Thread, flags core.EnqueueFlags) {
	rq := &p.rq[cpu]
	p.fold(cpu, t)
	d := td(t)
	d.sliceUsed = 0
	if flags&core.EnqWakeup != 0 || flags&core.EnqNew != 0 {
		// place_entity: sleeper credit of at most half the latency
		// target, never moving vruntime backwards.
		if v := rq.minVruntime - float64(p.P.SchedLatency)/2; v > d.vruntime {
			d.vruntime = v
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
	return t
}

func (p *Policy) PickCPU(t *sched.Thread, idle []bool) int {
	return p.placer.Pick(t, idle)
}

// SchedTimerTick advances the current task's vruntime and preempts it when
// its dynamic slice is used up and a leftward competitor exists.
func (p *Policy) SchedTimerTick(cpu int, curr *sched.Thread, ranFor simtime.Duration) bool {
	p.fold(cpu, curr)
	if len(p.rq[cpu].tasks) == 0 {
		return false
	}
	return td(curr).sliceUsed >= p.idealSlice(cpu)
}

func (p *Policy) idealSlice(cpu int) simtime.Duration {
	nr := len(p.rq[cpu].tasks) + 1
	s := p.P.SchedLatency / simtime.Duration(nr)
	if s < p.P.MinGranularity {
		s = p.P.MinGranularity
	}
	return s
}

func (p *Policy) SchedBalance(cpu int) *sched.Thread { return nil }
