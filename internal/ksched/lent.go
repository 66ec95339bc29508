package ksched

import (
	"skyloft/internal/hw"
	"skyloft/internal/policy"
	"skyloft/internal/sched"
	"skyloft/internal/simtime"
)

// Cross-runtime core lending: the borrower half of the lease protocol
// (DESIGN.md §15). A lending runtime (core.Engine) hands a whole isolated
// core to this kernel via Online, forwards the core's IRQ traffic through
// ForwardIRQ while the lease is active, and takes the core back either
// cooperatively — a vacate IPI the kernel answers by re-homing its work and
// calling the vacate hook — or forcibly through ForceOffline when the IPI
// was lost or the CPU never quiesces in time.

// SetVacateHook installs the broker's completion callback: it runs once per
// vacate, after the CPU's work has been re-homed and the core is out of the
// scheduling set, with the interrupt fully unwound — safe for the broker to
// switch kernel threads and return the lease.
func (k *Kernel) SetVacateHook(fn func(kidx int)) { k.vacateHook = fn }

// ForwardIRQ injects an IRQ into CPU kidx's handler — the lender calls this
// for every IRQ arriving on a lent core, since the lender's runtime keeps
// the hardware handler registration for the core's whole lifetime.
func (k *Kernel) ForwardIRQ(kidx int, irq hw.IRQ) { k.cpus[kidx].handleIRQ(irq) }

// Online brings lent CPU kidx into the scheduling set: the tick starts, and
// with IdleSteal enabled the CPU immediately pulls queued work from its
// siblings. The caller (the lease broker) has already switched the core's
// kernel thread to this runtime's.
func (k *Kernel) Online(kidx int) {
	c := k.cpus[kidx]
	if !c.offline {
		return
	}
	c.offline = false
	c.idle = true
	c.lastRan = nil
	k.onlines++
	if k.params.HZ > 0 {
		c.hwc.Timer.StartHz(k.params.HZ, tickVector)
	}
	k.kickIfIdle(c)
}

// Offline reports whether CPU kidx is outside the scheduling set.
func (k *Kernel) Offline(kidx int) bool { return k.cpus[kidx].offline }

// vacateIPI is the cooperative reclaim path: the lender asked for the core
// back. The offlining itself is deferred to afterIRQ so the interrupt
// unwinds first.
func (c *cpu) vacateIPI() {
	var ran simtime.Duration
	if c.hwc.Running() {
		ran = c.hwc.StopRun()
	}
	if c.curr != nil {
		c.account(c.curr, ran)
	}
	if !c.offline {
		c.offlinePending = true
	}
	c.hwc.Exec(c.k.cost.KernelIPIReceive, c.irqDoneFn)
}

// ForceOffline is the forced-revocation path: take CPU kidx offline right
// now if it is quiescent (not mid-interrupt, not mid-runtime-op, not in a
// dispatch transition). It reports false when the CPU cannot be safely
// yanked this instant — every such window is bounded by kernel costs, so a
// caller retrying on a short timer converges within the lease's eviction
// slack regardless of what the tenant's threads do.
func (k *Kernel) ForceOffline(kidx int) bool {
	c := k.cpus[kidx]
	if c.offline {
		return true
	}
	if c.hwc.InIRQ() || c.inRuntime {
		return false
	}
	if c.curr != nil && (!c.dispatched || !c.hwc.Running()) {
		return false // a dispatch or completion continuation owns the core
	}
	if c.hwc.Running() {
		ran := c.hwc.StopRun()
		if c.curr != nil {
			c.account(c.curr, ran)
		}
	}
	c.doOffline()
	return true
}

// doOffline removes the CPU from the scheduling set: the current thread and
// every queued thread are re-homed to online CPUs, the tick stops, and the
// vacate hook tells the broker the core is clean to hand back. runqDepth is
// unchanged by the queue migration (the threads stay enqueued, elsewhere);
// the interrupted current thread re-enters a queue, which enqueue counts —
// matching its departure from the uncounted running state.
func (c *cpu) doOffline() {
	c.offline = true
	c.offlinePending = false
	c.needResched = false
	c.idle = false
	c.hwc.Timer.Stop()
	c.k.vacates++
	if t := c.curr; t != nil {
		c.setCurr(nil)
		t.State = sched.Runnable
		target := c.k.placeWakeup(t)
		target.enqueue(t, policy.EnqPreempted)
		c.k.kickIfIdle(target)
	} else {
		c.setCurr(nil) // bump epoch: stale dispatch callbacks must not land
	}
	for _, t := range c.rt {
		target := c.k.migrateTarget(c)
		target.rt = append(target.rt, t)
		c.k.kickIfIdle(target)
	}
	c.rt = c.rt[:0]
	for ; c.nfair > 0; c.nfair-- {
		t := c.k.fair.TaskDequeue(c.idx)
		target := c.k.migrateTarget(c)
		c.k.fair.TaskEnqueue(target.idx, t, policy.EnqPreempted)
		target.nfair++
		c.k.kickIfIdle(target)
	}
	if c.k.vacateHook != nil {
		c.k.vacateHook(c.idx)
	}
}

// migrateTarget picks the least-loaded online CPU for a raw queue transfer
// (runqDepth already counts the migrating thread).
func (k *Kernel) migrateTarget(from *cpu) *cpu {
	var best *cpu
	for _, c := range k.cpus {
		if c == from || c.offline {
			continue
		}
		if best == nil || c.queueLen() < best.queueLen() {
			best = c
		}
	}
	if best == nil {
		panic("ksched: vacating the last online CPU")
	}
	return best
}

// stealOne implements newidle balancing (Config.IdleSteal): take one thread
// from the busiest online CPU — its fair policy's next thread, or else its
// RT queue's tail. The caller dispatches it immediately, so runqDepth drops
// exactly as pickNext would have dropped it.
func (k *Kernel) stealOne(c *cpu) *sched.Thread {
	var src *cpu
	for _, o := range k.cpus {
		if o == c || o.offline || o.queueLen() == 0 {
			continue
		}
		if src == nil || o.queueLen() > src.queueLen() {
			src = o
		}
	}
	if src == nil {
		return nil
	}
	if src.nfair > 0 {
		// The stolen thread passes through c's queue, so the fair policy
		// records it as c's running thread and src keeps its own.
		src.nfair--
		k.runqDepth--
		k.fair.TaskEnqueue(c.idx, k.fair.TaskDequeue(src.idx), policy.EnqPreempted)
		return k.fair.TaskDequeue(c.idx)
	}
	n := len(src.rt)
	t := src.rt[n-1]
	src.rt = src.rt[:n-1]
	k.runqDepth--
	return t
}

// ---- faults.SchedState implementation (read-only audit surface) ----

// Now reports the current virtual time.
func (k *Kernel) Now() simtime.Time { return k.m.Now() }

// RunqDepth reports threads enqueued across all online CPUs but not on one.
func (k *Kernel) RunqDepth() int64 { return k.runqDepth }

// RunnableThreads counts threads currently in the Runnable state.
func (k *Kernel) RunnableThreads() int {
	n := 0
	for _, t := range k.threads {
		if t.State == sched.Runnable {
			n++
		}
	}
	return n
}

// NumWorkers reports the CPU count, lent CPUs included.
func (k *Kernel) NumWorkers() int { return len(k.cpus) }

// WorkerSnapshot reports CPU i's instantaneous state. Offline CPUs report
// busy-with-nothing, which the grant-uniqueness and work-conservation
// checks both skip.
func (k *Kernel) WorkerSnapshot(i int) (idle bool, task int) {
	c := k.cpus[i]
	if c.offline {
		return false, 0
	}
	if c.curr != nil {
		task = c.curr.ID
	}
	return c.idle, task
}
