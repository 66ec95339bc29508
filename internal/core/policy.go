package core

import (
	"skyloft/internal/sched"
	"skyloft/internal/simtime"
)

// EnqueueFlags qualify why a task is entering the runqueue, mirroring the
// flags argument of task_enqueue in the paper's Table 2.
type EnqueueFlags int

const (
	// EnqNew marks a newly spawned task.
	EnqNew EnqueueFlags = 1 << iota
	// EnqWakeup marks a task waking from Blocked/Sleeping.
	EnqWakeup
	// EnqPreempted marks a task put back after involuntary preemption.
	EnqPreempted
	// EnqYield marks a task that voluntarily yielded.
	EnqYield
)

// Policy is the paper's Table 2 scheduling-operations interface for per-CPU
// scheduling models: a scheduler is implemented entirely in terms of these
// callbacks, in a few hundred lines (Table 4). All callbacks run in
// scheduler context on the engine's virtual cores; they must not block.
type Policy interface {
	// Name identifies the policy in reports.
	Name() string

	// SchedInit initialises policy state for ncpu isolated cores
	// (sched_init).
	SchedInit(ncpu int)

	// TaskInit initialises the policy-defined field of a new task
	// (task_init). The task is not yet runnable. The engine recycles
	// thread descriptors, so PolData may still hold the object the policy
	// set in the descriptor's previous life: reset it in place
	// (policy.ResetData) rather than allocating a new one.
	TaskInit(t *sched.Thread)

	// TaskTerminate is called when a task exits (task_terminate). PolData
	// stays with the descriptor for its next life.
	TaskTerminate(t *sched.Thread)

	// TaskEnqueue puts a task on the runqueue of cpu (task_enqueue).
	TaskEnqueue(cpu int, t *sched.Thread, flags EnqueueFlags)

	// TaskDequeue selects and removes the next task to run on cpu
	// (task_dequeue); nil leaves the core idle.
	TaskDequeue(cpu int) *sched.Thread

	// PickCPU chooses the core for a waking or new task. idle[i] reports
	// whether core i currently idles. Typical policies prefer t.LastCPU,
	// then any idle core.
	PickCPU(t *sched.Thread, idle []bool) int

	// SchedTimerTick runs in the user timer-interrupt handler (Listing 1)
	// for cpu's current task, which has executed ranFor since the last
	// tick; returning true preempts it (sched_timer_tick).
	SchedTimerTick(cpu int, curr *sched.Thread, ranFor simtime.Duration) bool

	// SchedBalance lets the policy rebalance when cpu has nothing to run
	// (sched_balance), e.g. by stealing; it returns a task to run or nil.
	SchedBalance(cpu int) *sched.Thread
}

// BlockNotifier is an optional Policy extension: TaskBlock (task_block in
// Table 2) is invoked when the current task suspends, letting policies like
// EEVDF save per-task state (lag) at dequeue time.
type BlockNotifier interface {
	TaskBlock(cpu int, t *sched.Thread)
}

// CentralPolicy drives the centralized scheduling model (Fig. 2b): a
// dispatcher core owns a single global queue and assigns tasks to workers;
// sched_poll is the engine's assignment loop built on these operations.
type CentralPolicy interface {
	// Name identifies the policy in reports.
	Name() string

	// Enqueue adds a task to the global queue.
	Enqueue(t *sched.Thread, flags EnqueueFlags)

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
