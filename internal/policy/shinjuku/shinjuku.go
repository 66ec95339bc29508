// Package shinjuku is the centralized scheduling policy of §5.2, after the
// Shinjuku system: a single global FIFO queue owned by a dispatcher core,
// with each request preempted and re-queued when it exceeds a quantum —
// approximating processor sharing to bound tail latency under dispersive
// workloads. It is the 192-line entry of Table 4; combined with the
// engine's Shenango-style core allocator it becomes the 444-line
// "Shinjuku-Shenango" policy.
package shinjuku

import (
	"skyloft/internal/policy"
	"skyloft/internal/sched"
	"skyloft/internal/simtime"
)

// Policy implements core.CentralPolicy.
type Policy struct {
	// PreemptQuantum is the per-dispatch run bound; the paper finds 30 µs
	// optimal for the Fig. 7 synthetic workload. 0 disables preemption.
	PreemptQuantum simtime.Duration

	q    []*sched.Thread // queued tasks from head on (head-indexed ring)
	head int
}

// New returns a Shinjuku policy with the given preemption quantum.
func New(quantum simtime.Duration) *Policy {
	return &Policy{PreemptQuantum: quantum}
}

func (p *Policy) Name() string { return "skyloft-shinjuku" }

// Enqueue appends to the global queue. Preempted tasks go to the tail too:
// Shinjuku re-queues long requests behind waiting short ones, which is
// exactly how it avoids head-of-line blocking.
func (p *Policy) Enqueue(t *sched.Thread, flags policy.EnqueueFlags) {
	if p.head > 0 && p.head == len(p.q) {
		// Drained: rewind so the backing array's capacity is reused.
		p.q = p.q[:0]
		p.head = 0
	}
	p.q = append(p.q, t)
}

// Dequeue pops the head of the global queue.
func (p *Policy) Dequeue() *sched.Thread {
	if p.head == len(p.q) {
		return nil
	}
	t := p.q[p.head]
	p.q[p.head] = nil
	p.head++
	return t
}

// Len reports the queue length.
func (p *Policy) Len() int { return len(p.q) - p.head }

// OldestWait reports the head task's queueing delay.
func (p *Policy) OldestWait(now simtime.Time) simtime.Duration {
	if p.head == len(p.q) {
		return 0
	}
	return now - p.q[p.head].EnqueuedAt
}

// Quantum reports the preemption quantum.
func (p *Policy) Quantum() simtime.Duration { return p.PreemptQuantum }
