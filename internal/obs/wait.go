package obs

import (
	"skyloft/internal/simtime"
	"skyloft/internal/trace"
)

// WaitSplit divides one wait for a core, from the instant a task became
// ready to its dispatch, into the four causes the paper's §5.1 analysis
// identifies by hand. The parts sum to the wait exactly.
//
//   - Queue: the dispatching core was busy and only freed up when its task
//     left voluntarily (block/sleep/yield/exit) — the task waited its turn.
//   - TickQuant: the core freed up through a preemption, and this portion
//     of the wait (at most one tick period) is the quantisation cost of a
//     periodic preemption tick — the component that collapses when the
//     tick moves from CONFIG_HZ to Skyloft's 100 kHz user timer.
//   - PreemptDelay: the remainder of a preemption-ended wait beyond one
//     tick period (the policy let the incumbent keep running); with no
//     tick period, the whole preemption-ended wait.
//   - Delivery: wake-IPI/UINTR delivery plus the dispatch path (pick,
//     context switch) after the core was available.
type WaitSplit struct {
	Queue        simtime.Duration
	TickQuant    simtime.Duration
	PreemptDelay simtime.Duration
	Delivery     simtime.Duration
}

// WaitClassifier replays per-core occupancy from the event stream — which
// event last freed each core, and when — and splits waits by it. The
// sched-doctor's tail attribution and the causal tracer's hops both use it.
// The zero value is ready; it allocates only when it first sees a core.
type WaitClassifier struct {
	cores []coreRelease
}

type coreRelease struct {
	at       simtime.Time
	kind     trace.Kind
	occupied bool // a Dispatch was seen on the core
}

// Observe folds one event: a Dispatch marks its core occupied; an off-CPU
// event records how and when it freed the core. Split a dispatch's wait
// before observing the dispatch.
func (c *WaitClassifier) Observe(ev trace.Event) {
	switch ev.Kind {
	case trace.Dispatch:
		if r := c.core(ev.CPU); r != nil {
			r.occupied = true
		}
	case trace.Preempt, trace.Yield, trace.Block, trace.Sleep, trace.Exit:
		if r := c.core(ev.CPU); r != nil {
			r.at, r.kind = ev.At, ev.Kind
		}
	}
}

func (c *WaitClassifier) core(cpu int) *coreRelease {
	if cpu < 0 {
		return nil
	}
	for cpu >= len(c.cores) {
		c.cores = append(c.cores, coreRelease{})
	}
	return &c.cores[cpu]
}

// Split classifies the wait [ready, dispatch) of a task dispatched on cpu:
// what freed the core last decides the class. tick is the preemption-tick
// period; 0 means unknown, and a preemption-ended wait is then all
// PreemptDelay.
func (c *WaitClassifier) Split(cpu int, ready, dispatch simtime.Time, tick simtime.Duration) WaitSplit {
	var r coreRelease
	if cpu >= 0 && cpu < len(c.cores) {
		r = c.cores[cpu]
	}
	if !r.occupied || r.at <= ready {
		// The core was already free when the task became ready.
		return WaitSplit{Delivery: dispatch - ready}
	}
	wait := r.at - ready
	s := WaitSplit{Delivery: dispatch - r.at}
	switch {
	case r.kind != trace.Preempt:
		s.Queue = wait
	case tick > 0:
		s.TickQuant = min(wait, tick)
		s.PreemptDelay = wait - s.TickQuant
	default:
		s.PreemptDelay = wait
	}
	return s
}
