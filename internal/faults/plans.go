package faults

import "skyloft/internal/simtime"

// Preset plans for the chaos gate (`make chaos`). Each targets one failure
// mode of the delivery substrate on the standard 4-CPU bench partition and
// confines the faults to a window inside a ~4ms run, so every plan has a
// clean lead-in (the scheduler reaches steady state), a fault storm (the
// hardening layer must engage), and a clean tail (recovery must complete).
// Rates are chosen high enough that a quick run injects tens of faults —
// the gate asserts non-zero recovery counters, so a plan that never fires
// is itself a failure.

// Preset returns the named chaos plan at the given seed, reporting whether
// the name is known. Names: ipi-drop, timer-drift, straggler-core,
// uintr-suppress, be-reclaim.
func Preset(name string, seed uint64) (*Plan, bool) {
	const (
		onset = 500 * simtime.Microsecond
		ms    = simtime.Millisecond
	)
	switch name {
	case "ipi-drop":
		// Legacy-IPI preemption path: drop a third of all physical IPIs and
		// badly delay a slice of the survivors. Exercises the bounded
		// retry-with-backoff (a dropped preemption must be resent) and the
		// watchdog's polling fallback when every retry is eaten.
		return &Plan{Name: name, Seed: seed, Rules: []Rule{
			{Kind: IPIDrop, Core: -1, From: simtime.Time(onset), Until: simtime.Time(3 * ms), Rate: 0.35},
			{Kind: IPIDelay, Core: -1, From: simtime.Time(onset), Until: simtime.Time(3 * ms), Rate: 0.15, Delay: 40 * simtime.Microsecond},
			{Kind: IPIDup, Core: -1, From: simtime.Time(onset), Until: simtime.Time(3 * ms), Rate: 0.10},
		}}, true
	case "timer-drift":
		// LAPIC misbehaviour: periodic preemption ticks skip fires and the
		// rearm interval wanders ±3µs. The per-CPU schedulers lean on the
		// tick for quantum enforcement, so misses surface as overlong runs
		// the watchdog must bound.
		return &Plan{Name: name, Seed: seed, Rules: []Rule{
			{Kind: TimerMiss, Core: -1, From: simtime.Time(onset), Until: simtime.Time(3 * ms), Rate: 0.30},
			{Kind: TimerDrift, Core: -1, From: simtime.Time(onset), Until: simtime.Time(3 * ms), Rate: 0.40, Delay: 3 * simtime.Microsecond},
		}}, true
	case "straggler-core":
		// One worker (CPU 2) goes dark for a bounded window: 8× slower AND
		// its LAPIC tick stops firing — the silent-straggler scenario. With
		// no tick there is no quantum preemption and no IRQ-path progress on
		// that core, so only the watchdog's polling fallback can take the
		// running task off it; the other cores must absorb the queue within
		// the invariant checker's idle budget.
		return &Plan{Name: name, Seed: seed, Rules: []Rule{
			{Kind: CoreStall, Core: 2, From: simtime.Time(ms), Until: simtime.Time(5 * ms / 2), Factor: 8},
			{Kind: TimerMiss, Core: 2, From: simtime.Time(ms), Until: simtime.Time(5 * ms / 2), Rate: 1},
		}}, true
	case "uintr-suppress":
		// §3.2 trap at scale: UINTR notifications vanish after posting, so
		// PIR bits sit with ON clear until a later send, a watchdog rescan,
		// or a retry resend flushes them.
		return &Plan{Name: name, Seed: seed, Rules: []Rule{
			{Kind: UINTRSuppress, Core: -1, From: simtime.Time(onset), Until: simtime.Time(3 * ms), Rate: 0.40},
		}}, true
	case "be-reclaim":
		// Core reclaim from a best-effort borrower (§5.2): the allocator
		// takes a granted core back with a user IPI, and 90% of those
		// notifications vanish, so the borrower keeps the core until a
		// retry resend or a watchdog rescan lands the preemption.
		return &Plan{Name: name, Seed: seed, Rules: []Rule{
			{Kind: UINTRSuppress, Core: -1, From: simtime.Time(onset), Until: simtime.Time(3 * ms), Rate: 0.9},
		}}, true
	}
	return nil, false
}

// PresetNames lists the preset plans in gate order.
func PresetNames() []string {
	return []string{"ipi-drop", "timer-drift", "straggler-core", "uintr-suppress", "be-reclaim"}
}
