// Command skyloft-bench regenerates the paper's entire evaluation (§5) in
// one run: Fig. 5 and 6 (schbench), Fig. 7a/7b/7c (synthetic dispersive
// workload, alone and with a batch co-runner), Fig. 8a (Memcached) and
// Fig. 8b (RocksDB server), plus the §5.4 microbenchmarks (Tables 6 and 7),
// the inter-application switch cost, and Table 4 (policy LoC). Each is an
// entry of the internal/bench figure registry; -fig runs one entry, and a
// run ends with the host seconds each entry took. -quick runs every
// entry's reduced grid.
//
// -report-out writes the machine-readable BENCH_skyloft.json summary (one
// key metric per figure plus the sched-doctor findings and a determinism
// hash; compare two with cmd/benchdiff); -report-only skips the printed
// tables and produces just the report, which is what `make bench-json`
// runs.
//
// The first entry, observed, is an instrumented companion run. It always
// carries the causal tracer: its slow-episode exemplars print next to the
// span summary (with per-edge critical-path attribution). The
// observability flags apply to it alone: -causal-out writes the exemplar
// document for cmd/skyloft-explain, -trace-out exports the run as Perfetto
// JSON with each exemplar's journey linked across the CPU tracks by flow
// arrows, -metrics-out snapshots the metrics registry, -doctor-out writes
// the sched-doctor diagnosis and -occupancy prints per-core shares.
//
// The live flags (-live-out, -live-window, -live-http, -flight-dir) stream
// the observed run's telemetry while it executes. Combined with -chaos and
// a single plan name, they switch the chaos path to the flight probe: one
// faulted run with the telemetry bus and flight recorder attached, dumping
// a post-mortem bundle (trace slice + window stats + metrics) into
// -flight-dir when a pathology detector or the invariant checker fires.
//
// -oversub runs the oversubscription survival gate instead of the sweep:
// the cross-runtime lease preset is replayed bit-identically with cross-app
// invariants audited at every transition, and the measured reclaim p99 is
// checked against the protocol's bound.
//
// Usage:
//
//	skyloft-bench [-fig ID] [-quick] [-seed 1] [-report-out BENCH_skyloft.json] [-report-only]
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"skyloft/internal/bench"
	"skyloft/internal/lint"
	"skyloft/internal/obs"
)

// runFlight runs one preset chaos plan with the live telemetry bus and
// flight recorder attached (bench.FlightProbe) instead of the full gate:
// the path `skyloft-bench -chaos straggler-core -flight-dir DIR` takes to
// produce a post-mortem bundle on demand.
func runFlight(plan string, seed uint64, of *obs.Flags) {
	res, sess, err := bench.FlightProbe(plan, seed, 0, of)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if err := sess.Close(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("flight probe: plan %s seed %d (%v, %s)\n", res.Plan, res.Seed, bench.ChaosDuration, res.Mode)
	fmt.Printf("injected=%d wd-rec=%d p99.9=%.1fµ violations=%d\n",
		res.Injected.Total(), res.Recovery.WatchdogRecoveries, res.WakeP999Us, res.Violations)
	fmt.Println(sess.Summary())
	if rec := sess.Bus.Recorder(); rec != nil && rec.Dumps() == 0 {
		fmt.Fprintf(os.Stderr, "flight probe: recorder armed but never triggered (plan %s)\n", plan)
		os.Exit(1)
	}
}

// runChaos executes the chaos gate (plan = a preset name, or "all") and
// prints the per-plan report: injection counts, the hardening layer's
// recovery counters, invariant-checker verdicts, and tail degradation vs
// the clean twin. traceOut, when set, additionally writes one chaos run's
// Perfetto export (fault instants on the CPU tracks) for cmd/tracecheck.
// Exits non-zero on any gate failure.
func runChaos(plan string, seed uint64, traceOut string) {
	var names []string
	if plan != "all" {
		names = []string{plan}
	}
	results, failures := bench.ChaosGate(seed, 0, names)

	fmt.Printf("chaos gate: seed %d, %v per run (each plan run twice + clean twin)\n\n", seed, bench.ChaosDuration)
	fmt.Printf("%-15s %-24s %9s %8s %8s %8s %10s %10s %7s %6s\n",
		"plan", "mode", "injected", "wd-rec", "rescans", "retries", "p99.9", "clean", "ratio", "viol")
	for _, r := range results {
		fmt.Printf("%-15s %-24s %9d %8d %8d %8d %9.1fµ %9.1fµ %6.2fx %6d\n",
			r.Plan, r.Mode, r.Injected.Total(),
			r.Recovery.WatchdogRecoveries, r.Recovery.Rescans, r.Recovery.IPIRetries,
			r.WakeP999Us, r.CleanP999Us, r.P999Ratio, r.Violations)
	}
	fmt.Println()
	for _, r := range results {
		fmt.Printf("%s: %d invariant checks; drops ipi=%d uintr-suppressed=%d timer-miss=%d; "+
			"uintr dropped=%d, irqs coalesced=%d\n",
			r.Plan, r.Checks, r.Injected.IPIsDropped, r.Injected.Suppressed,
			r.Injected.TimerMisses, r.UINTRDropped, r.IRQsCoalesced)
	}

	if traceOut != "" && len(results) > 0 {
		// Export the per-CPU plan with the richest fault instants when it
		// ran (straggler-core), else whatever ran last.
		exp := results[len(results)-1]
		for _, r := range results {
			if r.Plan == "straggler-core" {
				exp = r
			}
		}
		f, err := os.Create(traceOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		err = obs.WritePerfetto(f, exp.RawEvents, obs.ExportConfig{
			NumCPUs: exp.Workers, AppNames: exp.AppNames, Instants: true,
		})
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s (%s chaos run, %d events)\n", traceOut, exp.Plan, len(exp.RawEvents))
	}

	if len(failures) > 0 {
		fmt.Fprintf(os.Stderr, "\nchaos gate FAILED (%d):\n", len(failures))
		for _, f := range failures {
			fmt.Fprintf(os.Stderr, "  %s\n", f)
		}
		os.Exit(1)
	}
	fmt.Printf("\nchaos gate OK: %d plans, deterministic replay, zero invariant violations\n", len(results))
}

// runOversub executes the oversubscription gate (preset = a preset name,
// or "all") and prints the per-preset report: lease state-machine counters,
// reclaim latency against the protocol's bound, fault injections, and the
// cross-app invariant verdicts. Each preset is run twice to check replay.
// Exits non-zero on any gate failure.
func runOversub(preset string, seed uint64) {
	var names []string
	if preset != "all" {
		names = []string{preset}
	}
	results, failures := bench.OversubGate(seed, 0, names)

	fmt.Printf("oversubscription gate: seed %d, %v per run (with replay)\n\n",
		seed, bench.OversubDuration)
	fmt.Printf("%-22s %7s %8s %6s %7s %7s %9s %9s %6s %5s\n",
		"preset", "grants", "reclaims", "coop", "forced", "evict", "p99", "bound", "miss", "viol")
	for _, r := range results {
		fmt.Printf("%-22s %7d %8d %6d %7d %7d %8.1fµ %8.1fµ %6d %5d\n",
			r.Preset, r.Grants, r.Reclaims, r.CooperativeReturns, r.ForcedRevocations,
			r.Evictions, r.ReclaimP99Us, r.ReclaimBoundUs, r.DeadlineMisses, r.Violations)
	}
	fmt.Println()
	for _, r := range results {
		fmt.Printf("%s: %d invariant checks, %d lease trace events, %d faults injected, %d revocation retries\n",
			r.Preset, r.Checks, r.LeaseEvents, r.Injected.Total(), r.RevocationRetries)
		for _, f := range r.Findings {
			fmt.Printf("  doctor: [%s] app %d: %s\n", f.Code, f.App, f.Evidence)
		}
	}

	if len(failures) > 0 {
		fmt.Fprintf(os.Stderr, "\noversubscription gate FAILED (%d):\n", len(failures))
		for _, f := range failures {
			fmt.Fprintf(os.Stderr, "  %s\n", f)
		}
		os.Exit(1)
	}
	fmt.Printf("\noversubscription gate OK: %d presets, bit-identical replay, "+
		"forced revocation engaged, reclaim p99 inside bound\n", len(results))
}

// emitReport builds the machine-readable benchmark report and writes it to
// path ("-" = stdout).
func emitReport(path string, seed uint64, quick bool) {
	r := bench.BuildReport(seed, quick)
	// The static half of the gate rides along as a sentinel metric: the
	// count of unsuppressed simlint findings over the whole module, pinned
	// to zero with a zero-drift tolerance in benchdiff. A determinism or
	// ownership violation then fails `make bench-gate` even on a branch
	// that never ran `make lint`. Injected here rather than in BuildReport
	// so the bench package's own tests stay free of the whole-module load.
	r.Metrics["lint.findings"] = float64(lintFindings())
	out := os.Stdout
	if path != "-" {
		f, err := os.Create(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer f.Close()
		out = f
	}
	if err := r.WriteJSON(out); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if path != "-" {
		fmt.Fprintf(os.Stderr, "wrote %s (%d metrics, %d finding scopes)\n",
			path, len(r.Metrics), len(r.Findings))
	}
}

// lintFindings runs the full simlint suite (all nine analyzers) over the
// module and returns the unsuppressed finding count. The report must be
// generated from inside the module tree; a report that silently skipped the
// static gate would defeat the sentinel, so any load failure is fatal.
func lintFindings() int {
	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "lint.findings sentinel:", err)
		os.Exit(1)
	}
	wd, err := os.Getwd()
	if err != nil {
		fail(err)
	}
	modRoot, err := lint.FindModRoot(wd)
	if err != nil {
		fail(err)
	}
	loader, err := lint.NewLoader(modRoot)
	if err != nil {
		fail(err)
	}
	pkgs, err := loader.Load("./internal/...", "./cmd/...")
	if err != nil {
		fail(err)
	}
	n := 0
	for _, pkg := range pkgs {
		n += len(lint.Unsuppressed(lint.Run(pkg, lint.All())))
	}
	return n
}

// usage reports a flag error and exits with status 2, as the flag package
// does for a malformed flag.
func usage(msg string) {
	fmt.Fprintln(os.Stderr, "skyloft-bench:", msg)
	os.Exit(2)
}

func main() {
	fig := flag.String("fig", "", "run one figure instead of all: "+strings.Join(bench.FigureIDs(), ", "))
	quick := flag.Bool("quick", false, "reduced sweeps for a fast smoke run")
	seed := flag.Uint64("seed", 1, "random seed")
	par := flag.Int("par", 0, "max parallel trials (0 = GOMAXPROCS, 1 = serial)")
	reportOut := flag.String("report-out", "", "write the machine-readable benchmark report as JSON (\"-\" for stdout)")
	reportOnly := flag.Bool("report-only", false, "emit only the -report-out JSON, skip the printed tables")
	chaos := flag.String("chaos", "", "run the chaos gate for a fault-plan preset (or \"all\") instead of the benchmark sweep")
	chaosTraceOut := flag.String("chaos-trace-out", "", "with -chaos: write one chaos run's Perfetto trace_event JSON here")
	oversub := flag.String("oversub", "", "run the oversubscription lease gate for a preset (or \"all\") instead of the benchmark sweep")
	of := obs.BindFlags()
	flag.Parse()
	bench.SetSweepWorkers(*par)

	figs := bench.Figures()
	if *fig != "" {
		f, err := bench.LookupFigure(*fig)
		if err != nil {
			usage(err.Error())
		}
		if *chaos != "" || *oversub != "" || *reportOnly {
			usage("-fig selects a figure of the sweep; -chaos, -oversub and -report-only skip the sweep")
		}
		if f.ID != "observed" && of.Active() {
			usage("the observability flags apply to -fig observed only")
		}
		figs = []bench.Figure{f}
	}

	if *chaos != "" {
		if *chaos != "all" && of.LiveActive() {
			runFlight(*chaos, *seed, of)
			return
		}
		runChaos(*chaos, *seed, *chaosTraceOut)
		return
	}

	if *oversub != "" {
		runOversub(*oversub, *seed)
		return
	}

	if *reportOnly {
		if *reportOut == "" {
			*reportOut = "-"
		}
		emitReport(*reportOut, *seed, *quick)
		return
	}

	start := time.Now() //simlint:allow wallclock progress timestamps on stdout only, never in reports
	section := func(name string) {
		//simlint:allow wallclock section headers show elapsed wall time for the human watching
		fmt.Printf("==== %s (t=%.0fs) ====\n", name, time.Since(start).Seconds())
	}

	took := make([]time.Duration, len(figs))
	for i, f := range figs {
		section(f.Title)
		t0 := time.Now() //simlint:allow wallclock host seconds per figure, stdout only
		if err := f.Run(os.Stdout, f.Grid(*quick), *seed, of); err != nil {
			fmt.Fprintf(os.Stderr, "fig %s: %v\n", f.ID, err)
			os.Exit(1)
		}
		took[i] = time.Since(t0) //simlint:allow wallclock host seconds per figure, stdout only
		fmt.Println()
	}

	if *reportOut != "" {
		section("Machine-readable report")
		emitReport(*reportOut, *seed, *quick)
		fmt.Println()
	}

	section("Host seconds per figure")
	for i, f := range figs {
		fmt.Printf("%-10s %8.3f  %s\n", f.ID, took[i].Seconds(), f.Title)
	}
	//simlint:allow wallclock final progress line; stdout only, never in reports
	fmt.Printf("\ntotal wall-clock: %.1fs\n", time.Since(start).Seconds())
}
