package core

import (
	"skyloft/internal/policy"
	"skyloft/internal/sched"
	"skyloft/internal/simtime"
	"skyloft/internal/trace"
)

// Scheduler hardening against a misbehaving delivery substrate (DESIGN.md
// §10): a per-core watchdog that detects silent cores and falls back to
// polling-mode rescheduling, UINTR notification rescans for the §3.2
// posted-but-unnotified trap, and bounded retry-with-backoff for
// preemption IPIs. Everything here is gated on Config.Hardening — a nil
// config adds no clock events, so golden hashes of clean runs are
// untouched (the per-core lastProgress stamps are unconditional plain
// field writes and perturb nothing).

// HardeningConfig enables and tunes the fault-tolerance layer.
type HardeningConfig struct {
	// WatchdogBudget is how long a core may stay silent (no dispatch, IRQ
	// or scheduling progress) while runnable work is queued before the
	// watchdog intervenes. Default 200µs: two orders above the worst
	// legitimate handoff latency in any profile, well under the p99.9
	// budget a chaos gate cares about.
	WatchdogBudget simtime.Duration
	// WatchdogPeriod is the sweep interval. Default WatchdogBudget/2, so
	// a wedge is caught at most 1.5 budgets after onset.
	WatchdogPeriod simtime.Duration
	// RetryTimeout is the initial wait before a preemption notification is
	// resent; each retry doubles it. Default 15µs (≈10× the user-IPI
	// end-to-end latency).
	RetryTimeout simtime.Duration
	// RetryMax bounds resends per preemption. Default 3.
	RetryMax int
}

func (h HardeningConfig) withDefaults() HardeningConfig {
	if h.WatchdogBudget <= 0 {
		h.WatchdogBudget = 200 * simtime.Microsecond
	}
	if h.WatchdogPeriod <= 0 {
		h.WatchdogPeriod = h.WatchdogBudget / 2
	}
	if h.RetryTimeout <= 0 {
		h.RetryTimeout = 15 * simtime.Microsecond
	}
	if h.RetryMax <= 0 {
		h.RetryMax = 3
	}
	return h
}

// HardeningStats are the recovery counters the chaos gate asserts on.
type HardeningStats struct {
	WatchdogRecoveries uint64 `json:"watchdog_recoveries"` // silent cores kicked or force-preempted
	Rescans            uint64 `json:"rescans"`             // lost UINTR notifications re-raised
	IPIRetries         uint64 `json:"ipi_retries"`         // preemption notifications resent
}

// HardeningStats reports the recovery counters (zero when disabled).
func (e *Engine) HardeningStats() HardeningStats { return e.hardenStats }

// markProgress stamps scheduling progress on a core. Called from the
// dispatch, IRQ and scheduling paths; always on (a plain field write), so
// enabling the watchdog later changes no behaviour retroactively.
func (c *coreCtx) markProgress(now simtime.Time) { c.lastProgress = now }

// startWatchdog arms the periodic sweep. Only called when Config.Hardening
// is non-nil, so clean runs see no extra clock events.
func (e *Engine) startWatchdog() {
	period := e.harden.WatchdogPeriod
	var sweep func()
	sweep = func() {
		e.watchdogSweep()
		e.m.Clock.After(period, sweep)
	}
	e.m.Clock.After(period, sweep)
}

// watchdogSweep is one pass of the per-core watchdog: first recover any
// posted-but-unnotified UINTR vectors (the §3.2 trap: PIR bits with ON
// clear never deliver on their own), then detect silent cores — no
// progress within the budget while runnable work is queued — and fall
// back to polling-mode rescheduling: kick an idle core, force-preempt a
// wedged busy one.
func (e *Engine) watchdogSweep() {
	now := e.m.Now()
	for _, c := range e.cores {
		if c.extLeased {
			continue // a lent core's delivery substrate belongs to the borrower
		}
		if c.recv.Rescan() {
			e.hardenStats.Rescans++
			c.markProgress(now) // a notification is on its way
		}
	}
	if e.runqDepth == 0 {
		return // silence with no work waiting is idleness, not a wedge
	}
	budget := e.harden.WatchdogBudget
	for _, c := range e.cores {
		if c.extLeased {
			continue // the borrower runtime watches its own lent cores
		}
		if now-c.lastProgress < budget {
			continue
		}
		// Escalation 1: a notification may have been lost after ON was
		// set (dropped on the wire). Clear the stale ON and re-raise; a
		// duplicate delivery folds an empty PIR and is counted dropped.
		if c.recv.ForceRescan() {
			e.hardenStats.Rescans++
			e.hardenStats.WatchdogRecoveries++
			c.markProgress(now)
			continue
		}
		// Escalation 2: polling-mode rescheduling.
		c.markProgress(now)
		if c.idle {
			e.hardenStats.WatchdogRecoveries++
			if e.mode == Centralized {
				e.pokeDispatcher()
			} else {
				e.kick(c)
			}
			continue
		}
		if e.watchdogPreempt(c) {
			e.hardenStats.WatchdogRecoveries++
		}
	}
}

// watchdogPreempt forcibly deschedules a silent busy core's task so queued
// work can run — the polling-mode fallback when no notification (timer
// tick or preemption IPI) has made it through. It reports whether the
// preemption was performed; cores mid-transition are left to their owner.
func (e *Engine) watchdogPreempt(c *coreCtx) bool {
	if c.curr == nil || !c.dispatched || c.inRuntime || c.hwc.InIRQ() || !c.hwc.Running() {
		return false
	}
	ranFor := c.hwc.StopRun()
	if e.mode == Centralized {
		// Route through the regular preemption path (handles BE-mode
		// cores and re-idles the worker); aiming at the current
		// assignment makes the synthetic notification non-stale.
		c.preemptAim = c.assignSeq
		e.preemptWorker(c, ranFor, nil)
		return true
	}
	t := c.curr
	e.account(t, ranFor)
	e.preemptions++
	e.emit(trace.Preempt, c.idx, t, int64(ranFor))
	t.State = sched.Runnable
	e.policy.TaskEnqueue(c.idx, t, policy.EnqPreempted)
	e.qUp()
	c.setCurr(nil)
	e.scheduleNext(c)
	return true
}

// armPreemptRetry schedules a bounded retry-with-backoff for a preemption
// notification aimed at assignment aim on worker w: if the assignment is
// still running when the timeout expires, the notification is resent and
// the timeout doubles, up to left resends.
func (e *Engine) armPreemptRetry(w *coreCtx, aim uint64, timeout simtime.Duration, left int) {
	if left <= 0 {
		return
	}
	e.m.Clock.After(timeout, func() {
		if w.assignSeq != aim || w.preemptAim != aim {
			return // the preemption landed or the assignment moved on
		}
		// Still running: the notification was lost, suppressed, or is
		// badly delayed. Resend (duplicates are benign: the stale-
		// notification guard and IRQ vector coalescing absorb them).
		e.hardenStats.IPIRetries++
		mech := e.ec.Preempt
		e.special.hwc.Exec(mech.Send, nil)
		if mech.UseUINTR {
			e.special.send.SendUIPI(w.dispUITT)
		} else {
			e.m.SendIPI(e.special.hwc.ID, w.hwc.ID, legacyPreemptVector, mech.Deliver, nil)
		}
		e.armPreemptRetry(w, aim, timeout*2, left-1)
	})
}

// ---- faults.SchedState implementation (read-only audit surface) ----

// Now reports the current virtual time.
func (e *Engine) Now() simtime.Time { return e.m.Now() }

// RunqDepth reports the runnable-queue accounting: tasks enqueued anywhere
// (policy runqueues, the central queue, BE side queues) but not on a core.
func (e *Engine) RunqDepth() int64 { return e.runqDepth }

// RunnableThreads counts live threads currently in the Runnable state.
func (e *Engine) RunnableThreads() int {
	n := 0
	for _, u := range e.live {
		if u.t.State == sched.Runnable {
			n++
		}
	}
	return n
}

// NumWorkers reports the worker-core count (faults.SchedState; same value
// as Workers, named for the audit interface).
func (e *Engine) NumWorkers() int { return len(e.cores) }

// WorkerSnapshot reports worker i's instantaneous state: idleness and the
// ID of the task currently owning it (0 = none).
func (e *Engine) WorkerSnapshot(i int) (idle bool, task int) {
	c := e.cores[i]
	if c.curr != nil {
		task = c.curr.ID
	}
	return c.idle, task
}
