package core_test

// Observability integration: span stitching must be a deterministic function
// of the seed, and attaching the profiler/registry must not perturb the
// engine's trace hash (the observability layer is read-only by design).

import (
	"bytes"
	"testing"

	"skyloft/internal/core"
	"skyloft/internal/cycles"
	"skyloft/internal/hw"
	"skyloft/internal/obs"
	"skyloft/internal/obs/causal"
	"skyloft/internal/obs/doctor"
	"skyloft/internal/obs/live"
	"skyloft/internal/policy/rr"
	"skyloft/internal/sched"
	"skyloft/internal/simtime"
	"skyloft/internal/trace"
)

// obsScenario is one run of the shared workload: the trace hash, the
// stitched spans, and — when instrumented — the occupancy report, the
// sched-doctor diagnosis (run with windowed telemetry before the hash is
// taken, so the hash witnesses that the doctor touched nothing), plus the
// live bus's window count and the causal tracer's journey counts.
type obsScenario struct {
	hash      uint64
	spans     *obs.SpanSet
	occ       []obs.CoreOccupancy
	report    *doctor.Report
	windows   int
	episodes  uint64 // causal journeys completed
	exemplars int    // causal exemplars retained
}

// runObsScenario runs a mixed two-app workload with the full observability
// stack attached (when instrument is true): registry, occupancy profiler,
// live telemetry bus with an armed (count-only) flight recorder, and the
// post-hoc doctor.
func runObsScenario(seed uint64, instrument bool) obsScenario {
	m := hw.NewMachine(hw.DefaultConfig())
	tr := trace.New(1 << 14)
	cfg := core.Config{
		Machine: m, Trace: tr, Seed: seed,
		CPUs: []int{0, 1, 2}, Mode: core.PerCPU,
		Policy:    rr.New(25 * simtime.Microsecond),
		TimerMode: core.TimerLAPIC, TimerHz: 100_000,
		Costs: core.SkyloftCosts(cycles.Default()),
	}
	e := core.New(cfg)
	defer e.Shutdown()

	var prof *obs.Profiler
	var bus *live.Bus
	var ctr *causal.Tracer
	if instrument {
		var reg obs.Registry
		e.RegisterMetrics(&reg)
		prof = e.NewOccupancyProfiler(2 * simtime.Microsecond)
		prof.Start()
		// Episode-mode causal tracer on an extra ring tap, coexisting with
		// the bus's primary tap and feeding exemplars into its snapshots.
		ctr = causal.New(causal.Config{
			Episodes:   true,
			TickPeriod: simtime.Second / 100_000,
		})
		ctr.Attach(tr)
		ctr.SetDeliveryProber(e)
		bus = live.Attach(live.Config{
			Window:   500 * simtime.Microsecond,
			Recorder: &live.Recorder{}, // armed, count-only (no Dir)
		}, live.Source{
			Clock: m.Clock, Ring: tr, Registry: &reg, Profiler: prof,
			AppNames: e.AppNames(), Workers: e.Workers(), Causal: ctr,
		})
	}

	for ai := 0; ai < 2; ai++ {
		app := e.NewApp("app")
		for i := 0; i < 6; i++ {
			app.Start("w", func(env sched.Env) {
				for r := 0; r < 30; r++ {
					switch env.Rand().Intn(3) {
					case 0:
						env.Run(simtime.Duration(3+env.Rand().Intn(40)) * simtime.Microsecond)
					case 1:
						env.Sleep(simtime.Duration(1+env.Rand().Intn(20)) * simtime.Microsecond)
					default:
						env.Yield()
					}
				}
			})
		}
	}
	e.Run(10 * simtime.Millisecond)

	events := tr.Events()
	ss := obs.BuildSpans(events)
	out := obsScenario{spans: ss}
	if instrument {
		if err := bus.Close(); err != nil {
			panic(err)
		}
		out.windows = bus.Windows()
		out.occ = prof.Report()
		out.episodes = ctr.Completed()
		out.exemplars = len(ctr.Exemplars())
		// Run the full doctor — windowed telemetry, attribution, detectors —
		// before reading the trace hash: if the doctor were anything but a
		// pure function of recorded data, the hash below would move.
		out.report = doctor.Analyze(events, ss, doctor.Config{
			Window:     500 * simtime.Microsecond,
			TickPeriod: simtime.Second / 100_000,
			Cores:      3,
		})
	}
	out.hash = tr.Hash()
	return out
}

// TestSpanDeterminism is the stitching determinism witness: same seed, twice,
// must yield byte-identical span sets and identical per-app wakeup-latency
// histograms.
func TestSpanDeterminism(t *testing.T) {
	ss1 := runObsScenario(3, false).spans
	ss2 := runObsScenario(3, false).spans
	if err := ss1.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(ss1.Spans) == 0 {
		t.Fatal("scenario produced no spans")
	}
	if len(ss1.Spans) != len(ss2.Spans) || ss1.Hash() != ss2.Hash() {
		t.Fatalf("span sets diverged: %d spans %#x vs %d spans %#x",
			len(ss1.Spans), ss1.Hash(), len(ss2.Spans), ss2.Hash())
	}
	a1, a2 := ss1.PerApp(), ss2.PerApp()
	if len(a1) != len(a2) {
		t.Fatalf("per-app bucket counts diverged: %d vs %d", len(a1), len(a2))
	}
	for i := range a1 {
		h1, h2 := a1[i].WakeupHist, a2[i].WakeupHist
		if h1.Count() != h2.Count() || h1.P50() != h2.P50() ||
			h1.P99() != h2.P99() || h1.P999() != h2.P999() || h1.Max() != h2.Max() {
			t.Fatalf("app %d wakeup histograms diverged", a1[i].App)
		}
	}
}

// TestObservabilityDoesNotPerturb attaches the registry, the occupancy
// profiler, the live telemetry bus with an armed flight recorder, the
// episode-mode causal tracer (extra ring tap + delivery prober), the
// sched-doctor and its windowed sampler, and requires the trace and span
// hashes to match the uninstrumented run — observability must be invisible
// to the scheduler.
func TestObservabilityDoesNotPerturb(t *testing.T) {
	bare := runObsScenario(9, false)
	inst := runObsScenario(9, true)
	if bare.hash != inst.hash {
		t.Fatalf("instrumentation perturbed the trace: %#x vs %#x", bare.hash, inst.hash)
	}
	if bare.spans.Hash() != inst.spans.Hash() {
		t.Fatalf("instrumentation perturbed the spans: %#x vs %#x",
			bare.spans.Hash(), inst.spans.Hash())
	}
	if inst.windows == 0 {
		t.Fatal("live bus published no windows")
	}
	if len(inst.occ) != 3 {
		t.Fatalf("occupancy report covers %d cores, want 3", len(inst.occ))
	}
	for _, c := range inst.occ {
		if c.Samples == 0 {
			t.Fatalf("cpu %d never sampled", c.CPU)
		}
		sum := c.Idle + c.Kernel
		for _, a := range c.Apps {
			sum += a
		}
		if sum < 0.999 || sum > 1.001 {
			t.Fatalf("cpu %d shares sum to %v", c.CPU, sum)
		}
	}
	if inst.report == nil || len(inst.report.Windows) == 0 || inst.report.Spans == 0 {
		t.Fatalf("doctor produced no diagnosis: %+v", inst.report)
	}
	if inst.episodes == 0 {
		t.Fatal("causal tracer completed no episodes")
	}
	if inst.exemplars == 0 {
		t.Fatal("causal tracer retained no exemplars")
	}
}

// TestDoctorReportDeterminism: two seeded instrumented runs must produce
// byte-identical doctor JSON — the property BENCH_skyloft.json inherits.
func TestDoctorReportDeterminism(t *testing.T) {
	r1 := runObsScenario(11, true).report
	r2 := runObsScenario(11, true).report
	var j1, j2 bytes.Buffer
	if err := r1.WriteJSON(&j1); err != nil {
		t.Fatal(err)
	}
	if err := r2.WriteJSON(&j2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(j1.Bytes(), j2.Bytes()) {
		t.Fatalf("doctor reports diverged:\n%s\nvs\n%s", j1.String(), j2.String())
	}
}
