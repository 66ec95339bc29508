package ksched

import (
	"skyloft/internal/policy"
	"skyloft/internal/sched"
)

// This file implements the per-class scheduling rules: pick-next, tick
// preemption and wakeup preemption. SCHED_RR and SCHED_FIFO live here; the
// fair classes (CFS, SCHED_BATCH, EEVDF) are the kernel's one fair policy,
// policy/cfs or policy/eevdf, driven through its Table 2 operations.

// rt reports whether c is a real-time class.
func (c Class) rt() bool { return c == ClassRR || c == ClassFIFO }

// pickNext implements __schedule()'s class iteration: the real-time classes
// (RR/FIFO) always beat the fair classes.
func (c *cpu) pickNext() *sched.Thread {
	if len(c.rt) > 0 {
		t := c.rt[0]
		c.rt = c.rt[1:]
		c.k.runqDepth--
		return t
	}
	if c.nfair == 0 {
		return nil
	}
	c.nfair--
	c.k.runqDepth--
	return c.k.fair.TaskDequeue(c.idx)
}

// classTick reports whether the current thread should be preempted at this
// tick (the class's task_tick hook). The slice is the time since the pick,
// switch and interrupt time included, as Linux's tick accounting sees it.
func (c *cpu) classTick(t *sched.Thread) bool {
	ran := c.now() - c.pickedAt
	switch kt(t).class {
	case ClassFIFO:
		return false // runs until it blocks or a higher class arrives
	case ClassRR:
		return ran >= c.k.params.RRTimeslice && len(c.rt) > 0
	default:
		return c.k.fair.SchedTimerTick(c.idx, t, ran)
	}
}

// enqueue adds t to the appropriate class queue on this CPU.
func (c *cpu) enqueue(t *sched.Thread, flags policy.EnqueueFlags) {
	t.EnqueuedAt = c.now()
	c.k.runqDepth++
	if c.k.runqDepth > c.k.runqHighWater {
		c.k.runqHighWater = c.k.runqDepth
	}
	if kt(t).class.rt() {
		c.rt = append(c.rt, t)
		return
	}
	c.k.fair.TaskEnqueue(c.idx, t, flags)
	c.nfair++
}

// block tells the fair policy that the current thread t leaves the
// runnable set (it blocks, sleeps or waits for I/O).
func (c *cpu) block(t *sched.Thread) {
	if !kt(t).class.rt() {
		c.k.fair.TaskBlock(c.idx, t)
	}
}

// shouldPreemptOnWake is check_preempt_curr(): does the woken thread
// preempt this CPU's current thread immediately (via resched IPI)? RT
// beats fair at once, and RT threads never preempt each other (RR waits
// for the slice). Among fair threads SCHED_BATCH never wakeup-preempts;
// otherwise the fair policy decides.
func (c *cpu) shouldPreemptOnWake(woken *sched.Thread) bool {
	wc, cc := kt(woken).class, kt(c.curr).class
	if wc.rt() || cc.rt() {
		return wc.rt() && !cc.rt()
	}
	return wc != ClassBatch && c.k.fair.CheckPreemptWake(c.idx, c.curr, woken)
}
