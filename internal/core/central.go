package core

import (
	"skyloft/internal/det"
	"skyloft/internal/sched"
	"skyloft/internal/simtime"
	"skyloft/internal/trace"
)

// Centralized scheduling model (Fig. 2b): CPUs[0] runs a dispatcher that
// owns the global queue, assigns tasks to idle workers, preempts tasks
// exceeding the policy quantum with user IPIs, and — when core allocation
// is enabled — grants idle workers to best-effort applications and reclaims
// them on congestion (§5.2).

// allocState tracks the Shenango-style core allocator.
type allocState struct {
	beQueues map[int][]*sched.Thread // per-BE-app pending tasks
	beOnCore int                     // workers currently granted to BE apps
	preempts uint64                  // BE cores reclaimed
	grants   uint64
}

// centralSubmit enqueues a runnable task. Best-effort tasks go to their
// app's side queue when core allocation is active; everything else goes to
// the dispatcher's global queue.
func (e *Engine) centralSubmit(t *sched.Thread, flags EnqueueFlags) {
	if ca := e.cfg.CoreAlloc; ca != nil && t.App != ca.LCApp {
		if e.allocState.beQueues == nil {
			e.allocState.beQueues = make(map[int][]*sched.Thread)
		}
		e.allocState.beQueues[t.App] = append(e.allocState.beQueues[t.App], t)
		e.qUp()
		e.pokeDispatcher()
		return
	}
	t.EnqueuedAt = e.m.Now()
	e.central.Enqueue(t, flags)
	e.qUp()
	e.pokeDispatcher()
}

// pokeDispatcher arms one pass of the dispatcher's spin loop.
func (e *Engine) pokeDispatcher() {
	if e.dispatchArmed {
		return
	}
	e.dispatchArmed = true
	e.special.hwc.Exec(e.ec.DispatchDecision, e.dispatchFn)
}

// dispatchLoop is sched_poll: assign queued tasks to idle workers, one
// dispatcher decision at a time (the decision cost is what caps a
// centralized scheduler's maximum throughput — ghOSt's transaction commits
// make this loop an order of magnitude slower than Skyloft's).
func (e *Engine) dispatchLoop() {
	w := e.idleWorker()
	if w == nil {
		return
	}
	t := e.central.Dequeue()
	if t == nil {
		// No LC work: consider granting the idle worker to a BE app, then
		// keep polling in case more workers idle.
		if e.maybeGrantBE(w) {
			e.pokeDispatcher()
		}
		return
	}
	e.assign(w, t)
	// Chain the next decision.
	e.pokeDispatcher()
}

func (e *Engine) idleWorker() *coreCtx {
	for _, c := range e.cores {
		if c.idle && !c.beMode {
			return c
		}
	}
	return nil
}

// assign hands task t to worker w and schedules the quantum check.
func (e *Engine) assign(w *coreCtx, t *sched.Thread) {
	w.markProgress(e.m.Now())
	e.qDown()
	w.idle = false
	w.assignSeq++
	seq := w.assignSeq
	// Best-effort grants run until the congestion allocator reclaims the
	// core; only LC assignments are bounded by the preemption quantum.
	if q := e.central.Quantum(); q > 0 && !w.beMode {
		e.m.Clock.After(q, e.newQCCont(w, t, seq).fire)
	}
	cost := e.ec.Handoff
	if w.lastRanID != t.ID {
		cost += e.ec.Switch
	}
	w.lastRanID = t.ID
	if t.App != w.currApp {
		cost += e.appSwitch(w, t.App)
	}
	w.setCurr(t)
	ep := w.epoch
	t.State = sched.Running
	t.LastCPU = w.idx
	w.hwc.Exec(cost, e.newDispCont(w, t, ep).fire)
}

// quantumCheck runs on the dispatcher when an assignment's quantum expires:
// if the worker still runs that assignment, preempt it.
func (e *Engine) quantumCheck(w *coreCtx, t *sched.Thread, seq uint64) {
	if w.assignSeq != seq || w.curr != t {
		return // the task finished or was replaced; stale check
	}
	e.sendPreempt(w)
}

// sendPreempt delivers a preemption notification to worker w using the
// configured mechanism, arming the hardening layer's retry when enabled.
func (e *Engine) sendPreempt(w *coreCtx) {
	e.sendPreemptOnce(w)
	if e.hardenOn {
		e.armPreemptRetry(w, w.preemptAim, e.harden.RetryTimeout, e.harden.RetryMax)
	}
}

// sendPreemptOnce sends a single preemption notification with no retry
// arming — the lease manager's reclaim path uses it directly because the
// manager owns its own escalation schedule (grace deadline, doubling
// resends, forced eviction).
func (e *Engine) sendPreemptOnce(w *coreCtx) {
	mech := e.ec.Preempt
	w.preemptAim = w.assignSeq
	e.special.hwc.Exec(mech.Send, nil)
	if mech.UseUINTR {
		if w.dispUITT < 0 {
			w.dispUITT = e.special.send.Connect(w.recv.UPID(), PreemptUserVector)
		}
		e.special.send.SendUIPI(w.dispUITT)
	} else {
		e.m.SendIPI(e.special.hwc.ID, w.hwc.ID, legacyPreemptVector, mech.Deliver, nil)
	}
}

// onPreemptIRQ handles a UINTR preemption on a worker (vector 61).
func (e *Engine) onPreemptIRQ(c *coreCtx, ranFor simtime.Duration) {
	ranFor += e.absorbSlippedRun(c)
	c.recv.UIRet()
	e.preemptWorker(c, ranFor, nil)
}

// preemptWorker re-queues the interrupted task and returns the worker to
// the idle pool (or, for a BE-mode core, back to the LC application).
func (e *Engine) preemptWorker(c *coreCtx, ranFor simtime.Duration, _ any) {
	t := c.curr
	if t != nil {
		e.account(t, ranFor)
	}
	if c.inRuntime {
		return // a runtime-op continuation owns the core; let it finish
	}
	if c.extLeased {
		return // the core belongs to an external runtime; nothing to preempt
	}
	if t == nil || c.assignSeq != c.preemptAim {
		// Stale notification: the assignment it was aimed at ended while
		// the IPI was in flight. Resume whatever currently owns the core
		// (its run segment was stopped at IRQ delivery); a still-pending
		// dispatch callback will start it instead.
		if t != nil && c.dispatched && !c.hwc.Running() {
			e.dispatch(c, t)
		}
		return
	}
	e.preemptions++
	if c.dispatched {
		e.emit(trace.Preempt, c.idx, t, int64(ranFor))
	}
	c.assignSeq++
	t.State = sched.Runnable
	c.setCurr(nil)
	if c.beMode {
		// A reclaimed BE core: its task returns to the BE side queue.
		c.beMode = false
		e.allocState.beOnCore--
		e.allocState.preempts++
		e.allocState.beQueues[t.App] = append(e.allocState.beQueues[t.App], t)
		e.leaseReturn(c)
	} else {
		t.EnqueuedAt = e.m.Now()
		e.central.Enqueue(t, EnqPreempted)
	}
	e.qUp()
	e.workerBecameIdle(c)
}

// workerBecameIdle marks a centralized worker free and pokes the
// dispatcher.
func (e *Engine) workerBecameIdle(c *coreCtx) {
	if c.beMode {
		c.beMode = false
		e.allocState.beOnCore--
		e.leaseReturn(c) // the borrower yielded the core on its own
	}
	c.setCurr(nil)
	c.assignSeq++ // any in-flight preemption for the old assignment is stale
	c.idle = true
	e.pokeDispatcher()
}

// ---- core allocation (Fig. 7b/7c) ----

// startCoreAllocator arms the periodic congestion check.
func (e *Engine) startCoreAllocator() {
	ca := e.cfg.CoreAlloc
	if ca.CheckInterval <= 0 {
		ca.CheckInterval = 5 * simtime.Microsecond
	}
	if ca.MaxBECores == 0 {
		ca.MaxBECores = len(e.cores) - 1
	}
	var check func()
	check = func() {
		e.allocCheck()
		e.m.Clock.After(ca.CheckInterval, check)
	}
	e.m.Clock.After(ca.CheckInterval, check)
}

// allocCheck reclaims BE cores when the LC queue is congested.
func (e *Engine) allocCheck() {
	ca := e.cfg.CoreAlloc
	if e.allocState.beOnCore == 0 {
		return
	}
	wait := e.central.OldestWait(e.m.Now())
	if wait < ca.CongestionThreshold && e.central.Len() <= len(e.cores) {
		return
	}
	// Congested: reclaim one BE core per check.
	for _, c := range e.cores {
		if c.beMode && c.curr != nil {
			if e.leaseMgr != nil {
				// Lease protocol: the manager sends the cooperative
				// notification and owns the escalation to forced
				// revocation. A false return means a reclaim is already
				// in flight on this core — try the next one.
				if e.leaseMgr.RequestReclaim(c.idx) {
					return
				}
				continue
			}
			e.sendPreempt(c)
			return
		}
	}
}

// maybeGrantBE gives an idle worker to a best-effort app with pending work,
// reporting whether a grant happened.
func (e *Engine) maybeGrantBE(w *coreCtx) bool {
	ca := e.cfg.CoreAlloc
	if ca == nil || e.allocState.beOnCore >= ca.MaxBECores {
		return false
	}
	// Only grant when the LC side shows no congestion at all.
	if e.central.Len() > 0 {
		return false
	}
	// Deterministic grant order: lowest BE app ID first. A bare map range
	// here handed the core to whichever app Go's randomized iteration
	// yielded first — replay-breaking once two BE apps have work queued.
	for _, app := range det.SortedKeys(e.allocState.beQueues) {
		q := e.allocState.beQueues[app]
		if len(q) == 0 {
			continue
		}
		t := q[0]
		e.allocState.beQueues[app] = q[1:]
		w.beMode = true
		e.allocState.beOnCore++
		e.allocState.grants++
		if e.leaseMgr != nil {
			// The grant is an explicit lease: mark the kernel module first
			// so the borrower's kthread may bind, then open the lease. A
			// grant on a non-idle lease is a protocol bug, not a runtime
			// condition.
			e.mod.MarkLeased(w.hwc.ID, ca.LCApp, t.App)
			if err := e.leaseMgr.Grant(w.idx, ca.LCApp, t.App); err != nil {
				panic("core: " + err.Error())
			}
		}
		e.assign(w, t)
		return true
	}
	return false
}

// BEGrants and BEPreempts report core-allocation activity.
func (e *Engine) BEGrants() uint64   { return e.allocState.grants }
func (e *Engine) BEPreempts() uint64 { return e.allocState.preempts }
