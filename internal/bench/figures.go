package bench

import (
	"fmt"
	"io"
	"strings"

	"skyloft/internal/apps/server"
	"skyloft/internal/baseline/linuxsim"
	"skyloft/internal/loadgen"
	"skyloft/internal/obs"
	"skyloft/internal/obs/doctor"
	"skyloft/internal/obs/live"
	"skyloft/internal/simtime"
	"skyloft/internal/stats"
)

// Grid is one sweep of a figure: the points its tables have rows and
// columns for. A figure reads only the fields it sweeps.
type Grid struct {
	Workers []int              // schbench worker counts (Fig. 5, 6)
	Reqs    int                // schbench requests per worker (Fig. 5, 6)
	Slices  []simtime.Duration // RR time slices (Fig. 6)
	Loads   []float64          // offered loads as fractions of capacity (Fig. 7, 8)
	Dur     simtime.Duration   // measurement window (Fig. 7, 8, the observed run)
}

// Figure is one entry of the evaluation registry: a figure or table of the
// paper's §5, or a companion section printed beside them, with the grids
// it is swept at, the runner that prints it and the points it adds to the
// machine-readable report.
type Figure struct {
	ID    string // the cmd/skyloft-bench -fig selector
	Title string // section header
	Full  Grid   // the paper-scale sweep
	Quick Grid   // the reduced sweep of skyloft-bench -quick
	// Run prints the figure's tables and summary at grid g. of selects the
	// observability outputs (nil for none); only the observed run reads it.
	Run func(w io.Writer, g Grid, seed uint64, of *obs.Flags) error
	// Report adds the figure's points to BuildReport's report; nil when the
	// report does not cover the figure.
	Report func(r *BenchReport, quick bool, seed uint64)
}

// Grid returns the figure's quick or full grid.
func (f Figure) Grid(quick bool) Grid { return pick(quick, f.Full, f.Quick) }

func pick(quick bool, full, q Grid) Grid {
	if quick {
		return q
	}
	return full
}

var (
	observedFull  = Grid{Dur: 50 * simtime.Millisecond}
	observedQuick = Grid{Dur: 10 * simtime.Millisecond}

	rrSlices = []simtime.Duration{25 * simtime.Microsecond, 50 * simtime.Microsecond,
		100 * simtime.Microsecond, 200 * simtime.Microsecond, 400 * simtime.Microsecond}
	schbenchFull  = Grid{Workers: []int{8, 16, 24, 32, 40, 48, 56, 64}, Reqs: 50, Slices: rrSlices}
	schbenchQuick = Grid{Workers: []int{16, 32, 48}, Reqs: 15, Slices: rrSlices}

	fig7Full = Grid{Loads: []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.85, 0.9, 0.95, 1.0},
		Dur: 300 * simtime.Millisecond}
	fig8aFull = Grid{Loads: []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.85, 0.9, 0.95},
		Dur: 300 * simtime.Millisecond}
	// Fig. 8b adds a 0.75 row: the utimer variant crosses its SLO there.
	fig8bFull = Grid{Loads: []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.75, 0.8, 0.85, 0.9, 0.95},
		Dur: 300 * simtime.Millisecond}
	// loadQuick is the quick grid of every load sweep (Fig. 7 and 8).
	loadQuick = Grid{Loads: []float64{0.2, 0.5, 0.8, 0.95}, Dur: 100 * simtime.Millisecond}
)

// fig7Quantum is the Fig. 7 centralized schedulers' preemption quantum.
const fig7Quantum = 30 * simtime.Microsecond

// SLOs behind the paper's headline ratios: Fig. 7a's maximum throughput
// with p99 within 200 µs, and Fig. 8b's maximum load within a 50× p99.9
// slowdown.
var (
	fig7aSLO = SLO{Rule: "p99 <= 200us", Max: 200, Baseline: string(SynthSkyloft)}
	fig8bSLO = SLO{Rule: "p99.9 slowdown <= 50x", Max: 50, Baseline: string(NetShenango)}
)

// figures is the registry, in skyloft-bench's print order.
var figures = []Figure{
	{ID: "observed", Title: "Span-derived wakeup latency (per app)",
		Full: observedFull, Quick: observedQuick,
		Run: runObserved, Report: reportObserved},
	{ID: "5", Title: "Fig 5: schbench wakeup latency",
		Full: schbenchFull, Quick: schbenchQuick,
		Run: func(w io.Writer, g Grid, seed uint64, _ *obs.Flags) error {
			p99, p50 := Fig5(g.Workers, g.Reqs, seed)
			_, err := fmt.Fprint(w, p99.Render(), p50.Render())
			return err
		},
		Report: reportFig5},
	{ID: "6", Title: "Fig 6: RR time-slice sweep",
		Full: schbenchFull, Quick: schbenchQuick,
		Run: func(w io.Writer, g Grid, seed uint64, _ *obs.Flags) error {
			_, err := fmt.Fprint(w, Fig6(g.Workers, g.Slices, g.Reqs, seed).Render())
			return err
		},
		Report: reportFig6},
	{ID: "7a", Title: "Fig 7a: dispersive workload",
		Full: fig7Full, Quick: loadQuick,
		Run: func(w io.Writer, g Grid, seed uint64, _ *obs.Flags) error {
			t := Fig7a(offered(g, Fig7Workers, server.DispersiveClasses()), fig7Quantum, g.Dur, seed)
			if _, err := fmt.Fprint(w, t.Render(), "\n"); err != nil {
				return err
			}
			return fig7aSLO.Write(w, t)
		},
		Report: reportFig7a},
	{ID: "7bc", Title: "Fig 7b/7c: dispersive + batch co-location",
		Full: fig7Full, Quick: loadQuick,
		Run: func(w io.Writer, g Grid, seed uint64, _ *obs.Flags) error {
			lat, share := Fig7bc(offered(g, Fig7Workers, server.DispersiveClasses()), fig7Quantum, g.Dur, seed)
			_, err := fmt.Fprint(w, lat.Render(), share.Render())
			return err
		}},
	{ID: "8a", Title: "Fig 8a: Memcached USR",
		Full: fig8aFull, Quick: loadQuick,
		Run: func(w io.Writer, g Grid, seed uint64, _ *obs.Flags) error {
			_, err := fmt.Fprint(w, Fig8a(offered(g, Fig8aWorkers, server.USRClasses()), g.Dur, seed).Render())
			return err
		}},
	{ID: "8b", Title: "Fig 8b: RocksDB bimodal",
		Full: fig8bFull, Quick: loadQuick,
		Run: func(w io.Writer, g Grid, seed uint64, _ *obs.Flags) error {
			t := Fig8b(offered(g, Fig8bWorkers, server.RocksDBClasses()), g.Dur, seed)
			if _, err := fmt.Fprint(w, t.Render(), "\n"); err != nil {
				return err
			}
			return fig8bSLO.Write(w, t)
		}},
	{ID: "table6", Title: "Table 6: preemption mechanisms (cycles)",
		Run: func(w io.Writer, _ Grid, _ uint64, _ *obs.Flags) error {
			var b strings.Builder
			fmt.Fprintf(&b, "%-18s %10s %10s %10s\n", "mechanism", "send", "receive", "delivery")
			for _, r := range Table6() {
				fmt.Fprintf(&b, "%-18s %10.0f %10.0f %10.0f\n", r.Name, r.Send, r.Receive, r.Delivery)
			}
			_, err := io.WriteString(w, b.String())
			return err
		},
		// Delivery cost per preemption mechanism (cycles).
		Report: func(r *BenchReport, _ bool, _ uint64) {
			for _, row := range Table6() {
				r.Metrics["table6."+row.Name+".delivery_cycles"] = row.Delivery
			}
		}},
	{ID: "table7", Title: "Table 7: threading operations (ns)",
		Run: func(w io.Writer, _ Grid, _ uint64, _ *obs.Flags) error {
			var b strings.Builder
			fmt.Fprintf(&b, "%-10s %10s %10s %10s\n", "op", "pthread", "go(real)", "skyloft")
			for _, r := range Table7() {
				fmt.Fprintf(&b, "%-10s %10.0f %10.0f %10.0f\n", r.Op, r.Pthread, r.Go, r.Skyloft)
			}
			_, err := io.WriteString(w, b.String())
			return err
		},
		// Simulated columns only: the Go column is measured on the host's
		// real runtime and would break byte-determinism.
		Report: func(r *BenchReport, _ bool, _ uint64) {
			for _, row := range Table7() {
				r.Metrics["table7."+row.Op+".pthread_ns"] = row.Pthread
				r.Metrics["table7."+row.Op+".skyloft_ns"] = row.Skyloft
			}
		}},
	{ID: "switch", Title: "Inter-application switch",
		Run: func(w io.Writer, _ Grid, _ uint64, _ *obs.Flags) error {
			_, err := fmt.Fprintf(w, "measured: %v (paper: 1,905 ns kernel path + uthread switch)\n", InterAppSwitch())
			return err
		},
		Report: func(r *BenchReport, _ bool, _ uint64) {
			r.Metrics["micro.inter_app_switch_ns"] = float64(InterAppSwitch())
		}},
	{ID: "table4", Title: "Table 4: policy lines of code",
		Run: func(w io.Writer, _ Grid, _ uint64, _ *obs.Flags) error {
			var b strings.Builder
			for _, r := range Table4() {
				fmt.Fprintf(&b, "%-14s %6d LOC\n", r.Policy, r.Lines)
			}
			_, err := io.WriteString(w, b.String())
			return err
		}},
}

// Figures returns the registry in print order.
func Figures() []Figure { return append([]Figure(nil), figures...) }

// FigureIDs returns the registry's IDs in print order.
func FigureIDs() []string {
	ids := make([]string, len(figures))
	for i, f := range figures {
		ids[i] = f.ID
	}
	return ids
}

// LookupFigure returns the registry entry with the given ID; the error for
// an unknown ID lists the valid ones.
func LookupFigure(id string) (Figure, error) {
	for _, f := range figures {
		if f.ID == id {
			return f, nil
		}
	}
	return Figure{}, fmt.Errorf("unknown figure %q (valid: %s)", id, strings.Join(FigureIDs(), ", "))
}

// offered turns g's load fractions into request rates for nworkers cores
// under the given request mix.
func offered(g Grid, nworkers int, classes []loadgen.Class) []float64 {
	capacity := Capacity(nworkers, classes)
	loads := make([]float64, len(g.Loads))
	for i, f := range g.Loads {
		loads[i] = f * capacity
	}
	return loads
}

// SLO is the rule behind a headline ratio: a table cell meets it when
// 0 < value <= Max (a zero cell is a run that completed nothing).
type SLO struct {
	Rule     string // printed form, e.g. "p99 <= 200us"
	Max      float64
	Baseline string // the column the ratios are relative to
}

// SLOLoad is one column's summary: the highest row x (offered load, krps)
// whose cell meets the SLO, and its ratio to the baseline column's. Both
// are 0 when no cell meets it, and Rel is 0 when the baseline's is.
type SLOLoad struct {
	Column string
	Load   float64
	Rel    float64
}

// Summarize returns each column's SLOLoad in column order. It reads the
// grid as measured: a column that crosses the SLO and dips back under it at
// a higher load counts at that higher load.
func (s SLO) Summarize(t *stats.Table) []SLOLoad {
	best := make(map[string]float64, len(t.Columns))
	for _, row := range t.Rows {
		for _, col := range t.Columns {
			if v, ok := row.Values[col]; ok && v > 0 && v <= s.Max && row.X > best[col] {
				best[col] = row.X
			}
		}
	}
	out := make([]SLOLoad, len(t.Columns))
	for i, col := range t.Columns {
		out[i] = SLOLoad{Column: col, Load: best[col]}
		if base := best[s.Baseline]; base > 0 {
			out[i].Rel = best[col] / base
		}
	}
	return out
}

// Write prints the summary of t.
func (s SLO) Write(w io.Writer, t *stats.Table) error {
	var b strings.Builder
	fmt.Fprintf(&b, "# max load with %s (krps, relative to %s):\n", s.Rule, s.Baseline)
	for _, l := range s.Summarize(t) {
		fmt.Fprintf(&b, "#   %-20s %8.1f  (%.2fx)\n", l.Column, l.Load, l.Rel)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// runObserved prints the instrumented companion run (ObservedRunOpts):
// span-derived wakeup latency per app, the causal tracer's slow-episode
// exemplars and the delivery substrate's health. The live flags stream it
// while it runs; the other observability flags write its trace, causal
// document, metrics, occupancy and doctor diagnosis.
func runObserved(w io.Writer, g Grid, seed uint64, of *obs.Flags) error {
	if of == nil {
		of = &obs.Flags{}
	}
	var sess *live.Session
	var sessErr error
	run := ObservedRunOpts(seed, g.Dur, ObserveOpts{
		Profile: of.Occupancy,
		Causal:  true,
		PreRun: func(h RunHooks) {
			sess, sessErr = live.FromFlags(of, live.Config{}, live.Source{
				Clock:    h.Clock,
				Ring:     h.Ring,
				Registry: h.Registry,
				Profiler: h.Profiler,
				AppNames: h.AppNames,
				Workers:  h.Workers,
				Causal:   h.Causal,
			})
		},
	})
	if sessErr != nil {
		return sessErr
	}
	if sess != nil {
		if err := sess.Close(); err != nil {
			return err
		}
		fmt.Fprintln(w, sess.Summary())
	}
	if err := run.Spans.Validate(); err != nil {
		return fmt.Errorf("span violation: %w", err)
	}
	if err := run.Spans.Report(w, run.AppNames); err != nil {
		return err
	}
	if err := run.Causal.Report(w); err != nil {
		return err
	}
	if err := of.EmitTrace(run.Events, obs.ExportConfig{
		NumCPUs: run.Workers, AppNames: run.AppNames, Instants: true,
		Flows: run.Causal.FlowJourneys(),
	}); err != nil {
		return err
	}
	if err := of.EmitCausal(run.Causal); err != nil {
		return err
	}
	if err := of.EmitMetrics(run.Registry); err != nil {
		return err
	}
	if err := of.EmitOccupancy(w, run.Profiler, run.AppNames); err != nil {
		return err
	}
	// Delivery-substrate health: §3.2 losses (notifications that found an
	// empty PIR) and interrupt edges absorbed by vector coalescing.
	substrate := map[string]uint64{}
	for _, s := range run.Registry.Snapshot() {
		substrate[s.Name] = uint64(s.Value)
	}
	if _, err := fmt.Fprintf(w, "delivery: uintr delivered=%d dropped=%d rescans=%d, irqs coalesced=%d\n",
		substrate["uintr.delivered"], substrate["uintr.dropped"],
		substrate["uintr.rescans"], substrate["hw.irqs.coalesced"]); err != nil {
		return err
	}
	if of.DoctorOut == "" {
		return nil
	}
	return of.EmitDoctor(doctor.Analyze(run.Events, run.Spans, doctor.Config{
		TickPeriod: simtime.Second / SkyloftTimerHz,
		Cores:      run.Workers,
	}))
}

// reportObserved adds the instrumented two-app run: span percentiles,
// doctor diagnosis, occupancy and the determinism witness.
func reportObserved(r *BenchReport, quick bool, seed uint64) {
	run := ObservedRun(seed, pick(quick, observedFull, observedQuick).Dur, true)
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
}

// reportWorkers is the report's schbench point: 32 workers on 24 cores,
// where queueing is what exposes the tick.
const reportWorkers = 32

// reportFig5 adds the headline wakeup-latency gap at reportWorkers, plus
// the tick-bound verdict per scheduler: linux-cfs must show the CONFIG_HZ
// signature, the µs-scale Skyloft schedulers must not.
func reportFig5(r *BenchReport, quick bool, seed uint64) {
	reqs := pick(quick, schbenchFull, schbenchQuick).Reqs
	for _, res := range []SchbenchResult{
		SchbenchLinux(linuxsim.RRDefault, reportWorkers, reqs, seed),
		SchbenchLinux(linuxsim.CFSDefault, reportWorkers, reqs, seed),
		SchbenchSkyloft(SkyloftRR, 0, reportWorkers, reqs, seed),
		SchbenchSkyloft(SkyloftCFS, 0, reportWorkers, reqs, seed),
	} {
		r.Metrics["fig5."+res.Scheduler+".p50_us"] = res.Hist.P50().Micros()
		r.Metrics["fig5."+res.Scheduler+".p99_us"] = res.Hist.P99().Micros()
		scope := "fig5." + res.Scheduler
		if f, ok := doctor.TickBound(res.Hist); ok {
			r.Findings[scope] = []doctor.Finding{f}
		} else {
			r.Findings[scope] = []doctor.Finding{}
		}
	}
}

// reportFig6 adds the RR-slice sweep's extremes at reportWorkers.
func reportFig6(r *BenchReport, quick bool, seed uint64) {
	g := pick(quick, schbenchFull, schbenchQuick)
	for _, slice := range []simtime.Duration{g.Slices[0], g.Slices[len(g.Slices)-1]} {
		res := SchbenchSkyloft(SkyloftRR, slice, reportWorkers, g.Reqs, seed)
		r.Metrics[fmt.Sprintf("fig6.rr-%v.p99_us", slice)] = res.Hist.P99().Micros()
	}
}

// reportFig7a adds one offered load (80% of capacity): p99 and throughput
// for Skyloft vs the simulated-Linux baseline. The event-core probe runs
// the same point on all 48 cores.
func reportFig7a(r *BenchReport, quick bool, seed uint64) {
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
	reportEngineProbe(r, seed)
}
