// Package fifo is the simplest Skyloft policy: per-CPU FIFO runqueues with
// no preemption (run to block). In Fig. 6 this is "Skyloft-FIFO", the
// infinite-time-slice end of the RR sweep.
package fifo

import (
	"skyloft/internal/policy"
	"skyloft/internal/sched"
	"skyloft/internal/simtime"
)

// Policy implements policy.Policy.
type Policy struct {
	rq     []policy.Deque
	placer policy.Placer
}

// New returns a FIFO policy.
func New() *Policy { return &Policy{} }

func (p *Policy) Name() string { return "skyloft-fifo" }

func (p *Policy) SchedInit(ncpu int) { p.rq = make([]policy.Deque, ncpu) }

func (p *Policy) TaskInit(t *sched.Thread)      {}
func (p *Policy) TaskTerminate(t *sched.Thread) {}

func (p *Policy) TaskEnqueue(cpu int, t *sched.Thread, flags policy.EnqueueFlags) {
	p.rq[cpu].PushBack(t)
}

func (p *Policy) TaskDequeue(cpu int) *sched.Thread { return p.rq[cpu].PopFront() }

func (p *Policy) PickCPU(t *sched.Thread, idle []bool) int {
	return p.placer.Pick(t, idle)
}

func (p *Policy) SchedTimerTick(cpu int, curr *sched.Thread, ranFor simtime.Duration) bool {
	return false // never preempt
}

func (p *Policy) SchedBalance(cpu int) *sched.Thread { return nil }
