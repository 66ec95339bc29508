package core

import (
	"skyloft/internal/policy"
	"skyloft/internal/sched"
	"skyloft/internal/simtime"
)

// CentralPolicy drives the centralized scheduling model (Fig. 2b): a
// dispatcher core owns a single global queue and assigns tasks to workers;
// sched_poll is the engine's assignment loop built on these operations.
type CentralPolicy interface {
	// Name identifies the policy in reports.
	Name() string

	// Enqueue adds a task to the global queue.
	Enqueue(t *sched.Thread, flags policy.EnqueueFlags)

	// Dequeue removes the next task to dispatch, or nil.
	Dequeue() *sched.Thread

	// Len reports the queue length.
	Len() int

	// OldestWait reports how long the head task has been queued (used by
	// the Shenango-style congestion detector for core allocation); 0 when
	// empty.
	OldestWait(now simtime.Time) simtime.Duration

	// Quantum is the preemption quantum for dispatched tasks; 0 disables
	// preemption (run to completion).
	Quantum() simtime.Duration
}
