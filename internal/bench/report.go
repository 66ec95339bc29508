package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"os"

	"skyloft/internal/apps/server"
	"skyloft/internal/baseline/linuxsim"
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

// BuildReport runs the report's experiment subset at the given seed. quick
// shrinks the measurement windows (the Makefile gate uses quick). The
// subset is chosen to cover every paper claim the repo reproduces with one
// cheap, deterministic number each.
func BuildReport(seed uint64, quick bool) *BenchReport {
	r := &BenchReport{
		Version:  BenchReportVersion,
		Quick:    quick,
		Seed:     seed,
		Metrics:  map[string]float64{},
		Findings: map[string][]doctor.Finding{},
	}

	// Instrumented two-app run: span percentiles, doctor diagnosis,
	// occupancy, and the determinism witness.
	obsDur := 50 * simtime.Millisecond
	if quick {
		obsDur = 10 * simtime.Millisecond
	}
	run := ObservedRun(seed, obsDur, true)
	diag := doctor.Analyze(run.Events, run.Spans, doctor.Config{
		TickPeriod: simtime.Second / SkyloftTimerHz,
		Cores:      run.Workers,
	})
	r.Metrics["observed.spans"] = float64(diag.Spans)
	r.Metrics["observed.wake_p50_us"] = diag.WakeP50.Micros()
	r.Metrics["observed.wake_p99_us"] = diag.WakeP99.Micros()
	r.Metrics["observed.windows"] = float64(len(diag.Windows))
	r.Findings["observed"] = append([]doctor.Finding{}, diag.Findings...)
	r.Occupancy = run.Profiler.Snapshot()
	r.DeterminismHash = fmt.Sprintf("%016x-%016x", run.Ring.Hash(), run.Spans.Hash())

	// Fig. 5 at one oversubscribed worker count (32 workers on 24 cores —
	// queueing is what exposes the tick): the headline wakeup-latency gap,
	// plus the tick-bound verdict per scheduler — linux-cfs must show the
	// CONFIG_HZ signature, the µs-scale Skyloft schedulers must not.
	workers, reqs := 32, 50
	if quick {
		reqs = 15
	}
	fig5 := []SchbenchResult{
		SchbenchLinux(linuxsim.RRDefault, workers, reqs, seed),
		SchbenchLinux(linuxsim.CFSDefault, workers, reqs, seed),
		SchbenchSkyloft(SkyloftRR, 0, workers, reqs, seed),
		SchbenchSkyloft(SkyloftCFS, 0, workers, reqs, seed),
	}
	for _, res := range fig5 {
		r.Metrics["fig5."+res.Scheduler+".p50_us"] = res.Hist.P50().Micros()
		r.Metrics["fig5."+res.Scheduler+".p99_us"] = res.Hist.P99().Micros()
		scope := "fig5." + res.Scheduler
		if f, ok := doctor.TickBound(res.Hist); ok {
			r.Findings[scope] = []doctor.Finding{f}
		} else {
			r.Findings[scope] = []doctor.Finding{}
		}
	}

	// Fig. 6 endpoints: the RR-slice sweep's extremes.
	for _, slice := range []simtime.Duration{25 * simtime.Microsecond, 400 * simtime.Microsecond} {
		res := SchbenchSkyloft(SkyloftRR, slice, workers, reqs, seed)
		r.Metrics[fmt.Sprintf("fig6.rr-%v.p99_us", slice)] = res.Hist.P99().Micros()
	}

	// Fig. 7a at one offered load (80% of capacity): p99 and throughput for
	// Skyloft vs the simulated-Linux baseline.
	dur := 100 * simtime.Millisecond
	if quick {
		dur = 30 * simtime.Millisecond
	}
	load := 0.8 * Capacity(Fig7Workers, server.DispersiveClasses())
	for _, sys := range []SynthSystem{SynthSkyloft, SynthLinuxCFS} {
		p := RunSynthetic(SynthConfig{System: sys, Rate: load, Duration: dur, Seed: seed})
		r.Metrics["fig7a."+string(sys)+".p99_us"] = p.P99
		r.Metrics["fig7a."+string(sys)+".throughput_rps"] = p.Throughput
	}

	// Event-core probe: the 48-core Fig. 7a quick point, bare and with each
	// observer attached. engine.dispatched is the bare run's event count,
	// the base both observer overheads below are measured against.
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

	// Table 6: delivery cost per preemption mechanism (cycles).
	for _, row := range Table6() {
		r.Metrics["table6."+row.Name+".delivery_cycles"] = row.Delivery
	}
	// Table 7: simulated columns only — the Go column is measured on the
	// host's real runtime and would break byte-determinism.
	for _, row := range Table7() {
		r.Metrics["table7."+row.Op+".pthread_ns"] = row.Pthread
		r.Metrics["table7."+row.Op+".skyloft_ns"] = row.Skyloft
	}
	r.Metrics["micro.inter_app_switch_ns"] = float64(InterAppSwitch())

	// Chaos sentinel: one preset plan per delivery path attacked, at the
	// gate seed. Pins that fault injection still fires, the hardening layer
	// still engages, and no plan has started violating invariants — without
	// paying for the full four-plan replayed `make chaos` gate here.
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

	// Oversubscription sentinels: both lease presets at the gate seed. The
	// drift bands track the counters; the protocol's hard guarantees —
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
