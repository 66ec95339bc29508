package core

import (
	"skyloft/internal/hw"
	"skyloft/internal/simtime"
)

// Cross-runtime core lending (DESIGN.md §15): a whole worker core is lent
// to an external runtime (e.g. a simulated-Linux ksched tenant). The engine
// parks its scheduling on the core, forwards its IRQ traffic to the
// borrower, and takes it back through the kernel module when the broker
// reclaims. The lease state machine (internal/lease) lives with the broker,
// which implements lease.Client itself; the engine only performs the two
// kernel-thread switches.

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
