// Package rr is Skyloft's Round-Robin policy (§5.1): per-CPU FIFO
// runqueues with a fixed time slice enforced by user-space timer
// interrupts. The paper's configuration is a 50 µs slice with a 100 kHz
// timer (Table 5); this implementation corresponds to the 141-line entry of
// Table 4.
package rr

import (
	"skyloft/internal/policy"
	"skyloft/internal/sched"
	"skyloft/internal/simtime"
)

// Policy implements policy.Policy.
type Policy struct {
	Slice  simtime.Duration
	rq     []policy.Deque
	placer policy.Placer
}

// New returns a Round-Robin policy with the given time slice.
func New(slice simtime.Duration) *Policy {
	if slice <= 0 {
		panic("rr: slice must be positive")
	}
	return &Policy{Slice: slice}
}

func (p *Policy) Name() string { return "skyloft-rr" }

func (p *Policy) SchedInit(ncpu int) { p.rq = make([]policy.Deque, ncpu) }

func (p *Policy) TaskInit(t *sched.Thread) {}

func (p *Policy) TaskTerminate(t *sched.Thread) {}

func (p *Policy) TaskEnqueue(cpu int, t *sched.Thread, flags policy.EnqueueFlags) {
	p.rq[cpu].PushBack(t)
}

func (p *Policy) TaskDequeue(cpu int) *sched.Thread { return p.rq[cpu].PopFront() }

func (p *Policy) PickCPU(t *sched.Thread, idle []bool) int {
	return p.placer.Pick(t, idle)
}

// SchedTimerTick preempts the current task once it has used its slice and
// a competitor waits.
func (p *Policy) SchedTimerTick(cpu int, curr *sched.Thread, slice simtime.Duration) bool {
	return slice >= p.Slice && p.rq[cpu].Len() > 0
}

func (p *Policy) SchedBalance(cpu int) *sched.Thread { return nil }
