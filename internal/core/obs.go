package core

import (
	"skyloft/internal/obs"
	"skyloft/internal/simtime"
)

// Observability surface: the engine exposes its counters through the
// zero-alloc metrics registry and its core states through the occupancy
// profiler. Everything here is read-only over state the engine maintains
// anyway, so attaching it never changes scheduling behaviour or the golden
// trace hashes.

// RegisterMetrics registers the engine's scheduler, UINTR and machine
// counters on r. All metrics are func-backed reads of existing fields —
// no hot-path work is added by registration.
func (e *Engine) RegisterMetrics(r *obs.Registry) {
	r.CounterFunc("core.preemptions", func() uint64 { return e.preemptions })
	r.CounterFunc("core.steals", func() uint64 { return e.steals })
	r.CounterFunc("core.faults", func() uint64 { return e.faults })
	r.GaugeFunc("core.runq.depth", func() int64 { return e.runqDepth })
	r.GaugeFunc("core.runq.high_water", func() int64 { return e.runqHighWater })
	r.AttachHistogram("core.wakeup_latency", e.WakeupHist)
	if e.tr != nil {
		r.CounterFunc("trace.events", e.tr.Total)
	}

	sumRecv := func(f func(c *coreCtx) uint64) func() uint64 {
		return func() uint64 {
			var n uint64
			for _, c := range e.cores {
				n += f(c)
			}
			if e.special != nil {
				n += f(e.special)
			}
			return n
		}
	}
	r.CounterFunc("uintr.senduipi", sumRecv(func(c *coreCtx) uint64 { return c.send.SendUIPIs() }))
	r.CounterFunc("uintr.ipis_generated", sumRecv(func(c *coreCtx) uint64 { return c.send.Sent() }))
	r.CounterFunc("uintr.delivered", sumRecv(func(c *coreCtx) uint64 { return c.recv.Delivered() }))
	r.CounterFunc("uintr.dropped", sumRecv(func(c *coreCtx) uint64 { return c.recv.Dropped() }))
	r.CounterFunc("uintr.uiret", sumRecv(func(c *coreCtx) uint64 { return c.recv.UIRets() }))
	r.CounterFunc("uintr.rescans", sumRecv(func(c *coreCtx) uint64 { return c.recv.Rescans() }))

	// Core-allocation counters exist only when the allocator is configured,
	// so clean-run metric snapshots keep their exact pre-existing key set.
	if e.cfg.CoreAlloc != nil {
		r.CounterFunc("core.be.grants", func() uint64 { return e.allocState.grants })
		r.CounterFunc("core.be.preempts", func() uint64 { return e.allocState.preempts })
		r.GaugeFunc("core.be.on_core", func() int64 { return int64(e.allocState.beOnCore) })
	}

	// Hardening recovery counters exist only when the layer is enabled, so
	// clean-run metric snapshots keep their exact pre-hardening key set.
	if e.hardenOn {
		r.CounterFunc("harden.watchdog.recoveries", func() uint64 { return e.hardenStats.WatchdogRecoveries })
		r.CounterFunc("harden.rescans", func() uint64 { return e.hardenStats.Rescans })
		r.CounterFunc("harden.ipi.retries", func() uint64 { return e.hardenStats.IPIRetries })
	}

	e.m.RegisterMetrics(r)
}

// OccupancySample classifies worker core i's instantaneous state for the
// occupancy profiler: idle, application work (an interruptible run segment
// is executing), or kernel/runtime (everything else the core is busy with —
// pick loops, context switches, interrupt handlers, runtime ops, fault
// stalls).
func (e *Engine) OccupancySample(i int) obs.CoreSample {
	c := e.cores[i]
	switch {
	case c.idle:
		return obs.CoreSample{State: obs.StateIdle}
	case c.curr != nil && c.hwc.Running() && !c.inRuntime:
		return obs.CoreSample{State: obs.StateApp, App: c.curr.App}
	default:
		return obs.CoreSample{State: obs.StateKernel}
	}
}

// NewOccupancyProfiler builds a profiler over the engine's worker cores,
// sampling every interval of virtual time (<=0: the profiler's default).
// Call Start on the result before Run.
func (e *Engine) NewOccupancyProfiler(interval simtime.Duration) *obs.Profiler {
	return obs.NewProfiler(e.m.Clock, len(e.cores), interval, e.OccupancySample)
}

// AppNames reports the registered applications' names indexed by app ID —
// the labelling input for trace export and occupancy reports.
func (e *Engine) AppNames() []string {
	names := make([]string, len(e.apps))
	for i, a := range e.apps {
		names[i] = a.Name
	}
	return names
}
