// Package policy hosts the paper's Table 2 scheduling-operations interface
// and the helpers its policies share. The policies live in subpackages
// (fifo, rr, cfs, eevdf, mlfq, edf, worksteal, shinjuku), each implementing
// the Table 2 operations in a few hundred lines — the point of Table 4. Both
// engines drive the same interface: the Skyloft runtime (internal/core)
// runs every per-CPU policy, and the simulated Linux kernel
// (internal/ksched) runs cfs and eevdf as its fair classes, so a Fig. 5
// cell pair differs only in mechanism.
package policy

import (
	"skyloft/internal/fifo"
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
	// (ResetData) rather than allocating a new one.
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

	// SchedTimerTick runs in the timer-interrupt handler (Listing 1) for
	// cpu's current task, which has held the CPU for slice since the
	// engine last picked it; returning true preempts it
	// (sched_timer_tick).
	SchedTimerTick(cpu int, curr *sched.Thread, slice simtime.Duration) bool

	// SchedBalance lets the policy rebalance when cpu has nothing to run
	// (sched_balance), e.g. by stealing; it returns a task to run or nil.
	SchedBalance(cpu int) *sched.Thread
}

// BlockNotifier is an optional Policy extension: TaskBlock (task_block in
// Table 2) is invoked when the current task leaves the runnable set (it
// blocks, sleeps or waits for I/O), letting policies like EEVDF save
// per-task state (lag) at dequeue time.
type BlockNotifier interface {
	TaskBlock(cpu int, t *sched.Thread)
}

// WakePreempter is an optional Policy extension, Linux's
// check_preempt_curr: after woken has been enqueued on cpu, it reports
// whether woken should preempt curr, cpu's running task, right away rather
// than at the next tick.
type WakePreempter interface {
	CheckPreemptWake(cpu int, curr, woken *sched.Thread) bool
}

// Placer implements the standard wakeup placement: the last CPU if idle,
// otherwise any idle CPU, otherwise the task's last CPU; tasks that never
// ran are spread round-robin so a burst of spawns does not pile onto CPU 0.
type Placer struct {
	next int
}

// Pick selects a CPU for t given the per-CPU idle mask.
func (p *Placer) Pick(t *sched.Thread, idle []bool) int {
	if t.LastCPU >= 0 && t.LastCPU < len(idle) && idle[t.LastCPU] {
		return t.LastCPU
	}
	for i, ok := range idle {
		if ok {
			return i
		}
	}
	if t.LastCPU >= 0 && t.LastCPU < len(idle) {
		return t.LastCPU
	}
	cpu := p.next % len(idle)
	p.next++
	return cpu
}

// Deque is a per-CPU task runqueue: FIFO at the front, with PopBack for
// stealing and PushFront for requeueing at the head. It is a ring buffer
// (fifo.Ring), so every operation is O(1) and a queue in steady state
// allocates nothing.
type Deque struct {
	r fifo.Ring[*sched.Thread]
}

// PushBack appends t.
func (d *Deque) PushBack(t *sched.Thread) { d.r.PushBack(t) }

// PushFront prepends t.
func (d *Deque) PushFront(t *sched.Thread) { d.r.PushFront(t) }

// PopFront removes and returns the head, or nil.
func (d *Deque) PopFront() *sched.Thread {
	t, _ := d.r.PopFront()
	return t
}

// PopBack removes and returns the tail, or nil.
func (d *Deque) PopBack() *sched.Thread {
	t, _ := d.r.PopBack()
	return t
}

// Len reports the queue length.
func (d *Deque) Len() int { return d.r.Len() }

// ResetData returns t's policy-defined field as a zeroed *T, for a policy's
// TaskInit. The engine recycles thread descriptors and a recycled thread
// still carries the *T of its previous life, so that object is cleared in
// place; a new one is allocated only when t carries none (a fresh thread)
// or another policy's type.
func ResetData[T any](t *sched.Thread) *T {
	d, ok := t.PolData.(*T)
	if !ok || d == nil {
		d = new(T)
		t.PolData = d
		return d
	}
	var zero T
	*d = zero
	return d
}
