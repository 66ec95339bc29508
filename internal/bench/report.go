package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"os"

	"skyloft/internal/apps/server"
	"skyloft/internal/hw"
	"skyloft/internal/obs"
	"skyloft/internal/obs/causal"
	"skyloft/internal/obs/doctor"
	"skyloft/internal/obs/live"
	"skyloft/internal/simtime"
	"skyloft/internal/trace"
)

// BenchReportVersion identifies the BENCH_skyloft.json schema; benchdiff
// refuses to compare reports with different versions.
const BenchReportVersion = 1

// BenchReport is the machine-readable benchmark summary: one key metric per
// figure/table of the paper plus the sched-doctor's findings, shaped for
// regression gating with cmd/benchdiff. The report is fully deterministic —
// virtual-time measurements only, map keys sorted by encoding/json, no
// wall-clock values — so two runs at the same seed are byte-identical.
type BenchReport struct {
	Version int    `json:"version"`
	Quick   bool   `json:"quick"`
	Seed    uint64 `json:"seed"`

	// Metrics maps dotted metric names ("fig5.linux-cfs.p99_us") to values.
	Metrics map[string]float64 `json:"metrics"`

	// Findings maps an experiment scope to the doctor findings it produced.
	// Scopes with no findings are present with an empty list, so benchdiff
	// can tell "clean" apart from "not analysed".
	Findings map[string][]doctor.Finding `json:"findings"`

	// Occupancy is the instrumented run's per-core occupancy profile.
	Occupancy *obs.OccupancySnapshot `json:"occupancy"`

	// DeterminismHash combines the instrumented run's trace-ring and span
	// hashes: the witness that the observed schedule itself — not just the
	// summary statistics — was reproduced.
	DeterminismHash string `json:"determinism_hash"`
}

// BuildReport runs the report's experiment subset at the given seed: each
// registry entry's report points (Figure.Report), then the chaos and
// oversubscription sentinels. quick shrinks the measurement windows (the
// Makefile gate uses quick). The subset is chosen to cover every paper
// claim the repo reproduces with one cheap, deterministic number each.
func BuildReport(seed uint64, quick bool) *BenchReport {
	r := &BenchReport{
		Version:  BenchReportVersion,
		Quick:    quick,
		Seed:     seed,
		Metrics:  map[string]float64{},
		Findings: map[string][]doctor.Finding{},
	}

	for _, f := range figures {
		if f.Report != nil {
			f.Report(r, quick, seed)
		}
	}

	// Chaos sentinel: one preset plan per delivery path attacked, at the
	// gate seed. Pins that fault injection still fires, the hardening layer
	// still engages, and no plan has started violating invariants — without
	// paying for the full five-plan replayed `make chaos` gate here.
	for _, name := range []string{"ipi-drop", "straggler-core"} {
		res, err := RunChaos(name, seed, 0)
		if err != nil {
			// Reports never existed without the presets; surface loudly.
			panic(fmt.Sprintf("bench: chaos sentinel %s: %v", name, err))
		}
		p := "chaos." + name
		r.Metrics[p+".injected"] = float64(res.Injected.Total())
		r.Metrics[p+".recoveries"] = float64(res.Recovery.WatchdogRecoveries +
			res.Recovery.Rescans + res.Recovery.IPIRetries)
		r.Metrics[p+".invariant_violations"] = float64(res.Violations)
		r.Metrics[p+".p999_ratio"] = res.P999Ratio
	}

	// Oversubscription sentinel: the cross-runtime lease preset at the gate
	// seed. The drift bands track the counters; the protocol's hard guarantees —
	// reclaim p99 inside the configured bound, zero invariant violations,
	// forced revocation actually engaged — are enforced loudly here, so a
	// report can never be generated from a broken lease protocol.
	for _, name := range OversubPresetNames() {
		res, err := RunOversub(name, seed, 0)
		if err != nil {
			panic(fmt.Sprintf("bench: oversub sentinel %s: %v", name, err))
		}
		if res.ReclaimP99Us > res.ReclaimBoundUs {
			panic(fmt.Sprintf("bench: %s reclaim p99 %.1fµs exceeds the %.1fµs bound",
				name, res.ReclaimP99Us, res.ReclaimBoundUs))
		}
		if res.Violations > 0 {
			msg := ""
			if len(res.ViolationMsgs) > 0 {
				msg = ": " + res.ViolationMsgs[0]
			}
			panic(fmt.Sprintf("bench: %s: %d invariant violations%s", name, res.Violations, msg))
		}
		if res.ForcedRevocations == 0 {
			panic(fmt.Sprintf("bench: %s: forced revocation never engaged", name))
		}
		p := "lease." + name
		r.Metrics[p+".grants"] = float64(res.Grants)
		r.Metrics[p+".forced_revocations"] = float64(res.ForcedRevocations)
		r.Metrics[p+".reclaim_p99_us"] = res.ReclaimP99Us
		r.Metrics[p+".reclaim_bound_us"] = res.ReclaimBoundUs
		r.Metrics[p+".invariant_violations"] = float64(res.Violations)
	}

	return r
}

// reportEngineProbe adds the event-core probe: the 48-core Fig. 7a quick
// point, bare and with each observer attached. engine.dispatched is the
// bare run's event count, the base both observer overheads below are
// measured against.
func reportEngineProbe(r *BenchReport, seed uint64) {
	baseProbe, liveProbe, causalProbe := engineProbe(seed)
	r.Metrics["engine.dispatched"] = float64(baseProbe.dispatched)
	// Live-bus cost on the same probe: extra dispatched events (boundary
	// ticks) as a percentage of the base run. The bus is attach-only, so
	// this is its *entire* modeled footprint; the 5%% acceptance bound is
	// enforced loudly here and regression-gated via benchdiff.
	overheadPct := 100 * float64(liveProbe.dispatched-baseProbe.dispatched) /
		float64(baseProbe.dispatched)
	if overheadPct > 5 {
		panic(fmt.Sprintf("bench: live bus overhead %.2f%% exceeds the 5%% bound", overheadPct))
	}
	r.Metrics["live.overhead_pct"] = overheadPct
	r.Metrics["live.windows"] = liveProbe.liveWindows
	// Causal tracer cost on the same probe: the tracer schedules no clock
	// events at all (ring tap + datapath callbacks only), so its modeled
	// overhead must be exactly zero — any dispatched-event delta means the
	// tracer perturbed the simulation, a correctness bug. The 0.5%% ceiling
	// is a loud tripwire, not an allowance.
	causalOverheadPct := 100 * float64(causalProbe.dispatched-baseProbe.dispatched) /
		float64(baseProbe.dispatched)
	if causalOverheadPct > 0.5 {
		panic(fmt.Sprintf("bench: causal tracer overhead %.2f%% exceeds the 0.5%% bound", causalOverheadPct))
	}
	r.Metrics["causal.overhead_pct"] = causalOverheadPct
	r.Metrics["causal.exemplar_coverage"] = causalProbe.causalCoverage
	r.Metrics["causal.exemplars"] = causalProbe.causalExemplars
}

// engineProbeResult is one probe run's measurement.
type engineProbeResult struct {
	dispatched      uint64
	liveWindows     float64 // snapshots published (bus-attached run only)
	causalCoverage  float64 // completed/started journeys (causal run only)
	causalExemplars float64 // retained exemplars (causal run only)
}

// engineProbe runs the 48-core Fig. 7a quick load point three times — bare,
// with the live telemetry bus attached, and with the causal request tracer
// attached. The bus-attached run dispatches strictly more (its boundary
// ticks); the delta is the bus's overhead. The causal run must dispatch
// exactly the base count — the tracer schedules nothing.
func engineProbe(seed uint64) (base, withLive, withCausal engineProbeResult) {
	run := func(withBus, withCausal bool) engineProbeResult {
		m := hw.NewMachine(hw.DefaultConfig()) // all 48 cores
		var bus *live.Bus
		var tr *trace.Ring
		var ctr *causal.Tracer
		if withBus {
			tr = trace.New(1 << 16)
			bus = live.Attach(live.Config{}, live.Source{Clock: m.Clock, Ring: tr})
		}
		if withCausal {
			if tr == nil {
				tr = trace.New(1 << 16)
			}
			ctr = causal.New(causal.Config{})
		}
		load := 0.8 * Capacity(Fig7Workers, server.DispersiveClasses())
		RunSynthetic(SynthConfig{
			System: SynthSkyloft, Rate: load,
			Duration: 30 * simtime.Millisecond, Warmup: 30 * simtime.Millisecond,
			Seed: seed, machine: m, tr: tr, ct: ctr,
		})
		res := engineProbeResult{dispatched: m.Clock.Dispatched()}
		if res.dispatched == 0 {
			panic("bench: engine probe ran no events")
		}
		if bus != nil {
			bus.Close()
			res.liveWindows = float64(bus.Windows())
		}
		if ctr != nil {
			res.causalCoverage = ctr.Coverage()
			res.causalExemplars = float64(len(ctr.Exemplars()))
		}
		return res
	}
	return run(false, false), run(true, false), run(false, true)
}

// WriteJSON writes the report as indented JSON; output is byte-stable for
// identical inputs (encoding/json sorts map keys).
func (r *BenchReport) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// ReadReport parses a report written by WriteJSON.
func ReadReport(path string) (*BenchReport, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r BenchReport
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}
