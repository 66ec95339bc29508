package core

import (
	"skyloft/internal/hw"
	"skyloft/internal/lease"
	"skyloft/internal/simtime"
)

// Lease-protocol integration (DESIGN.md §15). Two shapes of lending share
// the state machine in internal/lease:
//
//   - Intra-engine (Config.Lease non-nil): every best-effort core grant the
//     centralized allocator makes becomes an explicit lease from the LC
//     application to the BE application. Reclaim rides the existing preempt
//     IPI as the cooperative notification; if the borrower never yields
//     (stall, dropped IPIs under a fault plan), the manager escalates and
//     finally force-evicts through watchdogPreempt — which stops the run
//     segment directly, needing no cooperation from the delivery substrate.
//
//   - Cross-runtime (LendWorker / ReclaimWorker): a whole worker core is
//     lent to an external runtime (e.g. a simulated-Linux ksched tenant).
//     The engine parks its scheduling on the core, forwards its IRQ traffic
//     to the borrower, and takes it back through the kernel module when the
//     broker reclaims. The lease state machine for this shape lives with
//     the broker (see bench), which implements lease.Client itself.

// evictRetryDelay paces forceEvictBE's retry loop over the borrower's
// non-preemptible windows (in-IRQ, mid-exec, in-runtime). Each window is
// bounded by scheduler costs — a few µs at worst — so the loop lands well
// inside Config.Lease.EvictSlack.
const evictRetryDelay = simtime.Microsecond

// startLeaseManager wires the intra-engine lease client: the engine itself
// delivers notifications (preempt IPIs) and performs evictions, and kmod's
// lease marks track the state machine so binding violations surface as
// errors at the exact transition that caused them.
func (e *Engine) startLeaseManager() {
	e.leaseMgr = lease.NewManager(*e.cfg.Lease, e.m.Clock, &engineLeaseClient{e: e}, e.tr)
	e.leaseMgr.OnTransition = func(l lease.Lease) {
		// Keep the kernel module's marks in step: Grant marks the lease
		// before assign (maybeGrantBE), Returned clears it (leaseReturn);
		// the forced-revocation edge flips the revoking flag here so no new
		// borrower thread can bind mid-yank.
		if l.State == lease.Revoking {
			e.mod.MarkRevoking(e.cores[l.Core].hwc.ID)
		}
	}
	e.leaseMgr.SetBindingAudit(func(core int) (int, bool) {
		kt := e.mod.ActiveOn(e.cores[core].hwc.ID)
		if kt == nil {
			return 0, false
		}
		return kt.App, true
	})
}

// LeaseManager reports the intra-engine lease manager (nil unless
// Config.Lease was set) so harnesses can read its counters and attach it to
// an invariant checker.
func (e *Engine) LeaseManager() *lease.Manager { return e.leaseMgr }

// engineLeaseClient is the engine half of the intra-engine lease protocol.
type engineLeaseClient struct {
	e *Engine
}

// ReclaimNotify delivers one reclaim notification to the borrowed worker as
// a plain preemption IPI — no private retry arming: the lease manager owns
// the escalation schedule, and a duplicate landing late is absorbed by the
// stale-notification guard.
func (cl *engineLeaseClient) ReclaimNotify(core, attempt int) {
	w := cl.e.cores[core]
	if !w.beMode {
		return // the core already came back; nothing to notify
	}
	cl.e.sendPreemptOnce(w)
}

// ForceEvict yanks the borrower off the worker through the direct
// watchdog-preempt path (StopRun + requeue), retrying over non-preemptible
// windows. It cannot be ignored: the run segment is stopped on the
// coordinator, not signalled over the (possibly faulty) IPI substrate.
func (cl *engineLeaseClient) ForceEvict(core int) {
	cl.e.forceEvictBE(cl.e.cores[core])
}

// forceEvictBE is the eviction loop behind ForceEvict: preempt the borrowed
// worker directly, retrying while the core sits in a non-preemptible window.
// Every such window is bounded by scheduler costs, so the loop completes
// within the configured EvictSlack regardless of borrower behaviour.
func (e *Engine) forceEvictBE(w *coreCtx) {
	var try func()
	try = func() {
		if !w.beMode {
			return // returned on its own while the evict was pending
		}
		// watchdogPreempt routes through preemptWorker, whose beMode branch
		// requeues the borrower's task and calls leaseReturn.
		if e.watchdogPreempt(w) {
			return
		}
		e.m.Clock.After(evictRetryDelay, try)
	}
	try()
}

// leaseReturn completes a lease on worker c: clear the kernel module's mark
// first (the lender's kthread must be free to rebind immediately), then
// tell the manager, which records the reclaim latency against the bound.
func (e *Engine) leaseReturn(c *coreCtx) {
	if e.leaseMgr == nil {
		return
	}
	e.mod.ClearLease(c.hwc.ID)
	e.leaseMgr.Returned(c.idx)
}

// ---- cross-runtime lending (LendWorker / ReclaimWorker) ----

// LendWorker lends idle worker i to an external runtime: the kernel module
// switches the core to the borrower's kernel thread tid (and marks the
// lease from the engine's current app to borrowerApp), and every legacy IRQ
// on the core is forwarded to h until ReclaimWorker. The returned duration
// is the kernel-module switch cost, already charged to the core. It reports
// false — and changes nothing — when the worker is not quiescent (busy,
// BE-granted, already lent, or mid-IRQ).
func (e *Engine) LendWorker(i, borrowerApp, tid int, h func(hw.IRQ)) (simtime.Duration, bool) {
	c := e.cores[i]
	if !c.idle || c.beMode || c.extLeased || c.curr != nil || c.hwc.InIRQ() || c.hwc.Running() {
		return 0, false
	}
	e.mod.MarkLeased(c.hwc.ID, c.currApp, borrowerApp)
	d, err := e.mod.SwitchTo(tid)
	if err != nil {
		e.mod.ClearLease(c.hwc.ID)
		return 0, false
	}
	c.extLeased = true
	c.extIRQ = h
	c.setIdle(false)
	c.setCurr(nil) // bump epoch: stale engine callbacks must not touch a lent core
	c.hwc.Exec(d, nil)
	return d, true
}

// ReclaimWorker takes a lent worker back: the lease mark is cleared, the
// kernel module switches the core back to the engine app's kernel thread,
// and once the switch cost has been charged the worker rejoins the idle
// pool. The borrower must already have vacated (stopped its timer and
// re-homed its queued work); the broker orchestrates that ordering.
func (e *Engine) ReclaimWorker(i int) {
	c := e.cores[i]
	if !c.extLeased {
		return
	}
	e.mod.ClearLease(c.hwc.ID)
	meta := e.seg.App(c.currApp)
	d, err := e.mod.SwitchTo(meta.KThreadTIDs[c.hwc.ID])
	if err != nil {
		panic("core: " + err.Error())
	}
	c.extLeased = false
	c.extIRQ = nil
	c.markProgress(e.m.Now())
	c.hwc.Exec(d, func() { e.workerBecameIdle(c) })
}
