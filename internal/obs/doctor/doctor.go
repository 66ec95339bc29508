// Package doctor turns the observability layer's raw material — the
// scheduling event stream and the stitched lifecycle spans — into a
// diagnosis: windowed telemetry over virtual time, an attribution table
// explaining where tail wakeup latency comes from, and structured pathology
// findings (work-conservation violations, starvation, cross-core imbalance,
// the Linux tick-bound signature of Fig. 5).
//
// Everything here is a pure function of already-recorded data: Analyze
// never touches engine state, adds clock events, or mutates its inputs, so
// running the doctor cannot perturb a schedule — golden trace hashes are
// byte-identical with the doctor on or off, and identical inputs always
// produce identical reports (the BENCH_skyloft.json determinism guarantee).
package doctor

import (
	"encoding/json"
	"io"

	"skyloft/internal/obs"
	"skyloft/internal/simtime"
	"skyloft/internal/trace"
)

// ReportVersion identifies the doctor's JSON schema; bump on any
// incompatible change so benchdiff can refuse cross-version comparisons.
const ReportVersion = 1

// Config tunes the analysis. The zero value is usable: every threshold
// defaults to a value documented on its field.
type Config struct {
	// Window is the windowed-telemetry width in virtual time (default
	// 1 ms). When the trace spans more than maxWindows windows the width
	// is doubled until it fits, so memory stays bounded on long runs.
	Window simtime.Duration `json:"window_ns"`
	// TailQuantile selects which spans the attribution pass explains:
	// everything at or above this wakeup-latency quantile (default 0.99).
	TailQuantile float64 `json:"tail_quantile"`
	// TickPeriod is the scheduler's preemption-tick period when known
	// (Skyloft: 1s/TimerHz). It splits busy-waits that end in a preemption
	// into tick quantisation (≤ one period) and residual preemption delay.
	// 0 = unknown; the whole wait is then preemption delay.
	TickPeriod simtime.Duration `json:"tick_period_ns"`
	// StarvationThreshold flags any wakeup that waits this long for its
	// dispatch, or is still waiting that long at a window close (default
	// 10 ms — far beyond every µs-scale scheduler here).
	StarvationThreshold simtime.Duration `json:"starvation_threshold_ns"`
	// IdleWasteThreshold is the minimum contiguous duration of "a core is
	// idle while the runqueue is non-empty" that counts as a
	// work-conservation violation (default 50 µs: longer than any
	// dispatch-path cost, so in-flight switches don't false-positive).
	IdleWasteThreshold simtime.Duration `json:"idle_waste_threshold_ns"`
	// ImbalanceThreshold is the busy-share spread (max core − min core)
	// that counts as cross-core imbalance (default 0.4).
	ImbalanceThreshold float64 `json:"imbalance_threshold"`
	// Cores is the worker-core count. 0 = infer from the event stream
	// (max CPU index seen + 1).
	Cores int `json:"cores"`
	// LeaseStarvationThreshold flags a borrower that went without any lent
	// core for at least this long between (or after) its leases (default
	// 1 ms). Only meaningful on traces carrying lease events.
	LeaseStarvationThreshold simtime.Duration `json:"lease_starvation_threshold_ns"`
	// LeaseThrashHold is the hold duration below which a completed lease
	// counts as thrash — reclaimed before the borrower got useful core time
	// (default 30 µs, ≈ the cost of the grant/revoke switch pair).
	LeaseThrashHold simtime.Duration `json:"lease_thrash_hold_ns"`
	// LeaseThrashCount is how many sub-LeaseThrashHold holds a borrower
	// must accumulate before the thrash finding fires (default 8).
	LeaseThrashCount uint64 `json:"lease_thrash_count"`
}

const (
	defaultWindow       = simtime.Millisecond
	defaultTailQuantile = 0.99
	defaultStarvation   = 10 * simtime.Millisecond
	defaultIdleWaste    = 50 * simtime.Microsecond
	defaultImbalance    = 0.4
	maxWindows          = 1024

	defaultLeaseStarvation  = simtime.Millisecond
	defaultLeaseThrashHold  = 30 * simtime.Microsecond
	defaultLeaseThrashCount = 8
)

func (c Config) withDefaults() Config {
	if c.Window <= 0 {
		c.Window = defaultWindow
	}
	if c.TailQuantile <= 0 || c.TailQuantile >= 1 {
		c.TailQuantile = defaultTailQuantile
	}
	if c.StarvationThreshold <= 0 {
		c.StarvationThreshold = defaultStarvation
	}
	if c.IdleWasteThreshold <= 0 {
		c.IdleWasteThreshold = defaultIdleWaste
	}
	if c.ImbalanceThreshold <= 0 {
		c.ImbalanceThreshold = defaultImbalance
	}
	if c.LeaseStarvationThreshold <= 0 {
		c.LeaseStarvationThreshold = defaultLeaseStarvation
	}
	if c.LeaseThrashHold <= 0 {
		c.LeaseThrashHold = defaultLeaseThrashHold
	}
	if c.LeaseThrashCount == 0 {
		c.LeaseThrashCount = defaultLeaseThrashCount
	}
	return c
}

// Report is the doctor's full output. It marshals to stable JSON: map-free,
// slices in deterministic order, no wall-clock timestamps — two runs of the
// same seed produce byte-identical reports.
type Report struct {
	Version int    `json:"version"`
	Config  Config `json:"config"`

	// Summary of the span population the analysis covered.
	Spans      int              `json:"spans"`
	Incomplete int              `json:"incomplete"`
	Orphans    int              `json:"orphans"`
	WakeP50    simtime.Duration `json:"wake_p50_ns"`
	WakeP99    simtime.Duration `json:"wake_p99_ns"`
	WakeP999   simtime.Duration `json:"wake_p999_ns"`

	Windows     []WindowStats    `json:"windows"`
	Attribution []AppAttribution `json:"attribution"`
	Findings    []Finding        `json:"findings"`
}

// Analyze runs the full diagnosis over a chronological event window.
// spans may be nil, in which case they are stitched from the events.
// The inputs are read-only: Analyze never reorders or mutates them.
func Analyze(events []trace.Event, spans *obs.SpanSet, cfg Config) *Report {
	cfg = cfg.withDefaults()
	if spans == nil {
		spans = obs.BuildSpans(events)
	}
	if cfg.Cores == 0 {
		for _, ev := range events {
			if ev.CPU >= cfg.Cores {
				cfg.Cores = ev.CPU + 1
			}
		}
	}

	// The windows and the starvation verdict come from the fold the live
	// bus runs; the whole-run percentiles come from the closed spans.
	windows, starved := buildWindows(events, cfg)
	wake := wakeHist(spans)
	r := &Report{
		Version:    ReportVersion,
		Config:     cfg,
		Spans:      len(spans.Spans),
		Incomplete: spans.Incomplete,
		Orphans:    spans.Orphans,
		WakeP50:    wake.P50(),
		WakeP99:    wake.P99(),
		WakeP999:   wake.P999(),
		Windows:    windows,
	}
	r.Attribution = attributeTails(events, spans, wake, cfg)
	r.Findings = detect(events, wake, windows, starved, cfg)
	return r
}

// WriteJSON writes the report as indented JSON. The output is byte-stable
// for identical inputs (obs.Flags' EmitDoctor contract).
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}
