package bench

import (
	"fmt"
	"strings"

	"skyloft/internal/det"
)

// Tolerance bounds how far a metric may drift from its baseline before the
// gate calls it a regression: |new − old| must exceed BOTH the relative
// band (Rel × |old|) and the absolute band (Abs) to fail. The absolute
// band keeps tiny metrics (a 2 µs p50) from tripping on one histogram
// bucket of movement that is far inside measurement resolution.
type Tolerance struct {
	Rel float64 // fraction of the baseline value
	Abs float64 // in the metric's own unit
}

// DiffConfig tunes a report comparison.
type DiffConfig struct {
	// Default applies to any metric with no matching override.
	Default Tolerance
	// PerPrefix overrides the tolerance for metrics whose dotted name
	// starts with the key ("fig5." or "fig5.linux-cfs.p99_us"); the longest
	// matching prefix wins.
	PerPrefix map[string]Tolerance
}

// DefaultDiffConfig is the gate's standard policy: 25% relative drift with
// a 2-unit absolute floor. The simulator is deterministic, so at equal
// seeds any drift at all is a code change — the band exists to let
// intentional cost-model tuning land without regenerating the baseline for
// noise-level movement. The chaos.* sentinels get a wider band: fault
// counts and recovery totals shift whenever any scheduling cost moves the
// fault windows over different events, and the binary invariants they
// guard (violations stay zero, hardening stays engaged) are enforced
// exactly by `make chaos`, not by this drift check.
func DefaultDiffConfig() DiffConfig {
	return DiffConfig{
		Default: Tolerance{Rel: 0.25, Abs: 2},
		PerPrefix: map[string]Tolerance{
			"chaos.": {Rel: 0.6, Abs: 5},
			// lease.* sentinels drift for the same reason chaos.* does:
			// grant/reclaim counts shift whenever any scheduling cost moves
			// the fault window over different events. The binary invariants
			// (violations zero, forced revocation engaged, reclaim p99
			// inside the bound) are enforced exactly by BuildReport's panics
			// and `make oversub`, not by this drift band.
			"lease.": {Rel: 0.6, Abs: 5},
			// engine.dispatched is the event-core probe's base event count,
			// the denominator of live.overhead_pct and causal.overhead_pct;
			// a tighter band catches a change that schedules extra events
			// per dispatch while letting workload-driven drift land.
			"engine.": {Rel: 0.10, Abs: 0.5},
			// live.* gauges the telemetry bus's own footprint. The hard
			// ceiling (overhead_pct <= 5) is enforced in BuildReport; the
			// drift band only flags a bus that suddenly schedules more
			// boundary events per run. overhead_pct sits near 0.01%, so the
			// absolute floor dominates: movement beyond one tenth of a
			// percentage point means the publishing cadence changed.
			"live.": {Rel: 0.5, Abs: 0.1},
			// causal.* gauges the request tracer. overhead_pct must be
			// exactly 0 (the tracer schedules no events; BuildReport panics
			// past 0.5), so any drift at all is a perturbation bug — the
			// tiny absolute band exists only for float formatting slack.
			// exemplar_coverage sits near 1.0 and moves only when the
			// journey lifecycle (open/bind/reply) changes.
			"causal.": {Rel: 0.05, Abs: 0.01},
			// lint.findings is the static-gate sentinel: the report embeds
			// the module's unsuppressed simlint count, committed at 0. Zero
			// tolerance on both axes — a single new determinism or
			// ownership finding is a gate failure, never drift.
			"lint.": {Rel: 0, Abs: 0},
		},
	}
}

func (c DiffConfig) tolerance(metric string) Tolerance {
	// Sorted iteration makes the longest-prefix winner deterministic even
	// when two configured prefixes tie in length: the lexicographically
	// last one wins, every run.
	best, bestLen := c.Default, -1
	for _, prefix := range det.SortedKeys(c.PerPrefix) {
		if strings.HasPrefix(metric, prefix) && len(prefix) >= bestLen {
			best, bestLen = c.PerPrefix[prefix], len(prefix)
		}
	}
	return best
}

// Regression is one gate failure.
type Regression struct {
	Metric string // dotted metric name or finding scope
	Reason string
}

func (r Regression) String() string { return r.Metric + ": " + r.Reason }

// DiffReports compares a candidate report against a baseline and returns
// the regressions: metrics that drifted beyond tolerance or disappeared,
// and pathology findings that appeared in scopes the baseline had clean.
// Improvements (new metrics, findings that vanished) are not regressions.
func DiffReports(baseline, candidate *BenchReport, cfg DiffConfig) []Regression {
	var out []Regression
	if baseline.Version != candidate.Version {
		return []Regression{{Metric: "version", Reason: fmt.Sprintf(
			"baseline v%d vs candidate v%d: regenerate the baseline", baseline.Version, candidate.Version)}}
	}
	if baseline.Quick != candidate.Quick || baseline.Seed != candidate.Seed {
		out = append(out, Regression{Metric: "config", Reason: fmt.Sprintf(
			"incomparable runs: baseline quick=%v seed=%d vs candidate quick=%v seed=%d",
			baseline.Quick, baseline.Seed, candidate.Quick, candidate.Seed)})
	}

	for _, m := range det.SortedKeys(baseline.Metrics) {
		old := baseline.Metrics[m]
		now, ok := candidate.Metrics[m]
		if !ok {
			out = append(out, Regression{Metric: m, Reason: "metric disappeared"})
			continue
		}
		t := cfg.tolerance(m)
		drift := now - old
		if drift < 0 {
			drift = -drift
		}
		relBand := t.Rel * abs(old)
		if drift > relBand && drift > t.Abs {
			out = append(out, Regression{Metric: m, Reason: fmt.Sprintf(
				"%.4g -> %.4g (drift %.4g exceeds rel %.0f%% and abs %.4g)",
				old, now, drift, 100*t.Rel, t.Abs)})
		}
	}

	for _, scope := range det.SortedKeys(baseline.Findings) {
		baseCodes := map[string]bool{}
		for _, f := range baseline.Findings[scope] {
			baseCodes[f.Code] = true
		}
		for _, f := range candidate.Findings[scope] {
			if !baseCodes[f.Code] {
				out = append(out, Regression{Metric: scope, Reason: fmt.Sprintf(
					"new pathology %q: %s", f.Code, f.Evidence)})
			}
		}
	}
	return out
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}
