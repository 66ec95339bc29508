// Package worksteal is Skyloft's Shenango-like work-stealing policy (§5.3):
// per-CPU FIFO runqueues, idle cores stealing from random victims, and —
// uniquely among user-space work-stealing runtimes — optional µs-scale
// preemption by user timer interrupt, which is what lets the RocksDB server
// sustain 1.9× Shenango's load under a bimodal workload (Fig. 8b). This is
// the 150-line preemptive work-stealing entry of Table 4.
package worksteal

import (
	"skyloft/internal/policy"
	"skyloft/internal/rng"
	"skyloft/internal/sched"
	"skyloft/internal/simtime"
)

// Policy implements policy.Policy.
type Policy struct {
	// Quantum bounds a task's uninterrupted run; 0 disables preemption
	// (plain Shenango-style work stealing).
	Quantum simtime.Duration
	rq      []policy.Deque
	r       *rng.Rand
	steals  uint64
	placer  policy.Placer
}

// New returns a work-stealing policy with the given preemption quantum
// (0 = cooperative).
func New(quantum simtime.Duration, seed uint64) *Policy {
	return &Policy{Quantum: quantum, r: rng.New(seed ^ 0x57EA1)}
}

func (p *Policy) Name() string {
	if p.Quantum > 0 {
		return "skyloft-ws-preempt"
	}
	return "skyloft-ws"
}

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

// SchedTimerTick preempts a task that exceeded the quantum while local work
// waits (approximating processor sharing for heavy-tailed workloads).
func (p *Policy) SchedTimerTick(cpu int, curr *sched.Thread, slice simtime.Duration) bool {
	return p.Quantum > 0 && slice >= p.Quantum && p.rq[cpu].Len() > 0
}

// SchedBalance steals from the tail of a random victim's queue.
func (p *Policy) SchedBalance(cpu int) *sched.Thread {
	n := len(p.rq)
	start := p.r.Intn(n)
	for i := 0; i < n; i++ {
		v := (start + i) % n
		if v == cpu {
			continue
		}
		if t := p.rq[v].PopBack(); t != nil {
			p.steals++
			return t
		}
	}
	return nil
}

// Steals reports successful steals.
func (p *Policy) Steals() uint64 { return p.steals }
