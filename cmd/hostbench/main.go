// Command hostbench measures the simulator's own speed: host wall-clock
// time, allocations and memory spent per simulated second and per
// dispatched event, end to end and per layer, on five workloads taken from
// the paper's §5 figures. Host wall clock is the only speed measure here;
// the modeled engine.* numbers in BENCH_skyloft.json (engine.events_per_sec,
// engine.speedup) are deterministic operation counts, not speed.
//
// Usage:
//
//	go run ./cmd/hostbench -workload <name|all> -seed N [-reps R | -seconds S]
//	    [-trace] [-trace-out spans.json] [-json report.json]
//	go run ./cmd/hostbench -diff [-bounds BENCHMARK.json] base.json cand.json
//	bash cmd/hostbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
//
// run.sh builds the command into .bench_build (build cache included) and
// runs it with the flags translated. The last line of standard output is
// always one JSON object {"correct", "attempted", "failed", "metrics"}:
// the end-to-end metrics, or with -trace the per-layer ones (prefixed by
// workload name under -workload all).
//
// # Run protocol
//
// One process, runtime.GOMAXPROCS(1), everything serial; hostbench starts
// no goroutines of its own. Simulation callbacks are serial by
// construction (DESIGN.md §11), so a second P would only let runtime
// work overlap the measured code by a varying amount. The output records
// the host's CPU count, GOMAXPROCS and the Go version.
//
// Per workload, the public internal/bench figure runner runs once, then
// one rep of hostbench's mirror of it, built from public constructors
// (hw.NewMachine, core.New, linuxsim.New, loadgen, netsim, server,
// kvstore, bench.ObservedRunOpts); their simulated digests must be equal.
// This untimed pass is also the warm-up. Then come the timed reps: each
// starts from debug.FreeOSMemory, builds a fresh machine, times set-up
// and run separately, checks the digest and the application's answers,
// reads the live heap and tears down. Every rep uses the same seed, so
// the simulated work is bit-identical and all spread between reps is host
// noise. -reps fixes the rep count; -seconds instead starts reps until
// that much host time has passed (at least 3), and a traced run spends
// half of it untraced and half traced.
//
// The mirror depends only on constructors and Run/RunUntil, Dispatched
// and Now, so it survives changes to the event core's internals. It
// drives Run/RunUntil in 1 ms simulated windows; runs stop only between
// events, so windows change no dispatch.
//
// # Workloads
//
// The simulated clients are open-loop Poisson inside the simulator; reps
// form a closed loop of one. Default rep counts keep an invocation under
// 30 s on a 2-vCPU host, traced or not.
//
//	name        config                                          reps x size
//	dispersive  Fig. 7a Skyloft, centralized shinjuku policy,    15 x (30 ms + 1 s)
//	            20 workers + dispatcher, 80% dispersive load,
//	            quick threads fed directly
//	schbench    Fig. 5 pair at 32 workers: Skyloft-CFS on 24     15 x 200 req/worker
//	            cores with 100 kHz LAPIC user timers, then
//	            linux-cfs; each runs until done
//	memcached   Fig. 8a Skyloft work stealing, 4 workers, NIC/   15 x (30 + 120 ms)
//	            RSS path, a goroutine thread per request, USR
//	            mix at 80% (1.6 Mrps)
//	rocksdb     Fig. 8b Skyloft, 5 us LAPIC preemption, 14        9 x (30 + 50 ms)
//	            workers, bimodal GET/SCAN on the LSM at 70%
//	observed    bench.ObservedRunOpts with the occupancy          15 x 1 s
//	            profiler, the causal tracer and live.Attach in
//	            PreRun (the skyloft-bench/skyloft-trace run)
//
// Why each exists: dispersive is event-core dominated (simtime, core, hw)
// and allocates nothing per event; it bypasses proc, netsim, kvstore and
// obs. schbench re-arms periodic timers, using simtime differently from
// dispersive's one-shot arrivals, and is the only coverage of ksched.
// memcached is the per-request path (proc, runtime, allocations); its
// point operations keep kvstore light, so it is the counter-workload for
// any kvstore change. rocksdb spends most of its time in kvstore range
// scans and is the slowest part of a full figure sweep. observed is the
// only workload with the trace ring and its taps attached; every other
// workload attaches nothing, so an observability change should leave them
// unchanged.
//
// # End-to-end metrics
//
// Measured with tracing off, one value per workload; lower is better for
// all. Bounds are relative shares of the baseline value (BENCHMARK.json).
//
//	name              unit           definition                             bound
//	setup_s           s              machine, engine, app (kvstore preload   0.25
//	                                 included) and feeder built, before the
//	                                 first event; median rep
//	slowdown          host_s/sim_s   run wall time / simulated time          0.20
//	                                 reached; fastest rep
//	ns_per_event      ns             run wall time / Dispatched(); fastest   0.20
//	                                 rep
//	allocs_per_event  allocs/event   MemStats.Mallocs over the run /         0.20
//	                                 events; median rep
//	live_mb           MiB            HeapAlloc + StackInuse after a forced   0.20
//	                                 GC at the end of the run, before
//	                                 teardown; median rep
//
// Run timings come from the fastest rep. On a shared 2-vCPU host,
// neighbours slow whole stretches of reps by 10-50%; over ten seeds, the
// quartile spread of the fastest rep's ns_per_event was 2-12% of its
// median, depending on the host's load, against up to 33% for the median
// rep. Each timing is printed with its median, maximum and rep count.
// Set-up is short, so it is reported as the median of its reps; starting
// every rep from freed memory keeps its page faults the same in every
// process. The bounds are wider than the timing spreads need on a quiet
// host because the same seed's fastest rep moved by up to 20% between
// processes on a loaded one; allocs_per_event and live_mb differ by seed
// (dispersive's few hundred allocations per run move in steps of 5%).
// failed_frac (reps that panicked, answered wrongly, or whose digest
// differed from the public runner, over reps attempted) is in the JSON
// report; -diff treats any increase as a regression.
//
// # Per-layer metrics (-trace)
//
// -trace repeats the timed reps under a CPU profile at 500 Hz (the
// runtime warns that pprof's fixed 100 Hz could not be applied; the
// higher rate stands), then runs one rep whose run phases have
// runtime.MemProfileRate = 1. Traced reps run back to back, without
// freeing memory in between.
// Samples are folded by skyloft/internal/<module> into layers: simtime,
// hw, uintrsim, core (with kmod, shm, sched), policy, ksched (with
// baseline/*), proc, netsim, loadgen, apps (server, schbench, batchapp),
// kvstore, trace, obs, bench, hostbench (this command, including its
// request handlers), runtime.gc and runtime.sched. A sample goes to its
// innermost frame in a layer; det, stats, rng and cycles are helpers and
// are skipped, so their time counts toward their caller. Samples with no
// layer frame go to runtime.gc (GC workers, sweepers, scavenger) or
// runtime.sched (everything else). Per layer L:
//
//	L.ns_per_event      L's sample share x traced wall time / events (ns);
//	                    the wall time covers whole traced reps, set-up to
//	                    teardown
//	L.allocs_per_event  L's allocations during the profiled rep's runs /
//	                    its events; tiny allocations packed into an open
//	                    16-byte block escape the profile, so the layers can
//	                    sum below allocs_per_event
//
// The traced run checks that the layers' ns_per_event sum to within 5% of
// traced wall time / events. Counters come from public accessors and
// registry counters: simtime.events, hw.ipis, hw.timer_fires,
// hw.irqs_coalesced, uintrsim.delivered, uintrsim.dropped,
// uintrsim.rescans, core.preemptions, core.steals, ksched.ctx_switches,
// loadgen.requests, apps.completed, apps.completion_ratio (completions in
// the measurement window / requests over the whole run, so below 1 by
// about the warm-up share), trace.events, runtime.gc_cycles and
// runtime.gc_pause_ns_per_event (per untraced rep's run),
// hostbench.window_us_p50/p99 (host µs per simulated ms over 1 ms
// windows; one sample per rep for observed, which runs in one call),
// hostbench.profile_samples and hostbench.trace_overhead_pct (fastest
// traced run against fastest untraced run). A counter no registry exposes
// is reported absent (0 on the last line), not as an error.
//
// The traced run also records spans from hostbench's own code around each
// public call — set-up (hw.NewMachine, core.New or linuxsim.New, NewApp
// with handler and preload, loadgen.New with Feed), every 1 ms run window,
// verify and Shutdown — and writes them to -trace-out as Chrome trace
// JSON. observed has one set-up span ending at PreRun and one run span.
//
// # Which layer moves which end-to-end metric
//
//   - simtime.* moves ns_per_event and slowdown on dispersive and
//     schbench, and should barely move rocksdb.
//   - hw.* and uintrsim.* move slowdown on schbench and on rocksdb's
//     200 kHz ticks.
//   - core.* and policy.* move slowdown on dispersive.
//   - proc.*, runtime.* and every *.allocs_per_event move slowdown,
//     allocs_per_event and live_mb on memcached and observed, not on
//     dispersive, which runs quick threads.
//   - kvstore.* moves slowdown and setup_s on rocksdb and must not regress
//     memcached.
//   - netsim.*, loadgen.* and apps.* move slowdown on memcached.
//   - trace.* and obs.* move slowdown and allocs_per_event on observed
//     only.
//
// # Comparing runs
//
// -diff reads two -json reports and the end-to-end bounds from
// BENCHMARK.json, prints one row per workload and metric (improved,
// unchanged or regressed) and exits 1 on any regression or a higher
// failed_frac.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"
)

func main() {
	runtime.GOMAXPROCS(1)
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// profileHz is the traced run's CPU sampling rate: enough for well over
// 1,000 samples in a few seconds of reps.
const profileHz = 500

type config struct {
	seed   uint64
	reps   int           // 0: each workload's default
	budget time.Duration // > 0: time-budgeted reps instead of a count
	traced bool
}

// metric is one reported number. Median, Max and Reps describe the reps
// behind a timing.
type metric struct {
	Name   string  `json:"name"`
	Value  float64 `json:"value"`
	Unit   string  `json:"unit"`
	Median float64 `json:"median,omitempty"`
	Max    float64 `json:"max,omitempty"`
	Reps   int     `json:"reps,omitempty"`
	Absent bool    `json:"absent,omitempty"`
}

// result is one workload's report.
type result struct {
	Name       string   `json:"name"`
	Correct    bool     `json:"correct"`
	Problems   []string `json:"problems,omitempty"`
	Attempted  int      `json:"attempted"`
	Failed     int      `json:"failed"`
	FailedFrac float64  `json:"failed_frac"`
	Digest     string   `json:"digest"`
	Metrics    []metric `json:"metrics"`
	PerLayer   []metric `json:"per_layer,omitempty"`
	// LargestLayer is the layer with the most CPU samples (-trace).
	LargestLayer string `json:"largest_layer,omitempty"`
}

type hostFacts struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	OS         string `json:"os"`
	Arch       string `json:"arch"`
}

type report struct {
	Host      hostFacts `json:"host"`
	Seed      uint64    `json:"seed"`
	Traced    bool      `json:"traced"`
	Workloads []*result `json:"workloads"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("hostbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "all", "workload to run: dispersive, schbench, memcached, rocksdb, observed or all")
	seed := fs.Uint64("seed", 1, "simulation seed, shared by every rep")
	reps := fs.Int("reps", 0, "timed reps per workload (default: the workload's own count)")
	seconds := fs.Float64("seconds", 0, "start timed reps until this many host seconds have passed, instead of -reps")
	traced := fs.Bool("trace", false, "add a traced run: per-layer numbers from CPU and allocation profiles, and spans")
	traceOut := fs.String("trace-out", "", "write the traced run's spans to this file as Chrome trace JSON")
	jsonOut := fs.String("json", "", "write the full report to this file as JSON")
	diff := fs.Bool("diff", false, "compare two -json reports: hostbench -diff base.json cand.json")
	bounds := fs.String("bounds", "BENCHMARK.json", "benchmark definition holding the end-to-end bounds, for -diff")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	usage := func(format string, a ...any) int {
		fmt.Fprintf(stderr, "hostbench: "+format+"\n", a...)
		return 2
	}
	if *diff {
		if fs.NArg() != 2 {
			return usage("-diff takes two reports, got %d arguments", fs.NArg())
		}
		return runDiff(*bounds, fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if fs.NArg() > 0 {
		return usage("unexpected arguments %q", fs.Args())
	}
	ws, err := lookupWorkloads(*workload)
	if err != nil {
		return usage("%v", err)
	}
	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	if set["reps"] && *reps <= 0 {
		return usage("-reps must be positive, got %d", *reps)
	}
	if set["seconds"] && !(*seconds > 0) {
		return usage("-seconds must be positive, got %v", *seconds)
	}
	if set["reps"] && set["seconds"] {
		return usage("-reps and -seconds are alternatives; give one")
	}
	if *traceOut != "" && !*traced {
		return usage("-trace-out needs -trace")
	}

	cfg := config{seed: *seed, reps: *reps, traced: *traced,
		budget: time.Duration(*seconds * float64(time.Second))}
	rep := report{
		Host: hostFacts{
			NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
			Go: runtime.Version(), OS: runtime.GOOS, Arch: runtime.GOARCH,
		},
		Seed: cfg.seed, Traced: cfg.traced,
	}
	fmt.Fprintf(stdout, "hostbench: nproc=%d GOMAXPROCS=%d %s %s/%s seed=%d\n",
		rep.Host.NProc, rep.Host.GOMAXPROCS, rep.Host.Go, rep.Host.OS, rep.Host.Arch, cfg.seed)
	var tr *tracer
	if cfg.traced {
		tr = &tracer{}
	}
	for _, w := range ws {
		res := benchWorkload(w, cfg, tr, stderr)
		printResult(stdout, res)
		rep.Workloads = append(rep.Workloads, res)
	}

	if *jsonOut != "" {
		if err := writeJSON(*jsonOut, rep); err != nil {
			fmt.Fprintf(stderr, "hostbench: %v\n", err)
			return 1
		}
	}
	if *traceOut != "" {
		if err := writeChromeTrace(*traceOut, tr.spans, ws); err != nil {
			fmt.Fprintf(stderr, "hostbench: %v\n", err)
			return 1
		}
	}
	line, err := resultLine(rep)
	if err != nil {
		fmt.Fprintf(stderr, "hostbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, line)
	return 0
}

// benchWorkload runs one workload's warm-up pass, timed reps and, when
// traced, its profiled reps.
func benchWorkload(w *workload, cfg config, tr *tracer, stderr io.Writer) *result {
	res := &result{Name: w.name}
	p, n := w.full, cfg.reps
	if n == 0 {
		n = w.reps
	}
	tally := func(reps ...repResult) {
		for _, r := range reps {
			res.Attempted++
			if r.err != nil {
				res.Failed++
				if len(res.Problems) < 5 {
					res.Problems = append(res.Problems, r.err.Error())
				}
			}
		}
	}

	want, err := publicDigest(w, cfg.seed, p)
	if err != nil {
		res.Problems = append(res.Problems, err.Error())
	}
	res.Digest = fmt.Sprintf("%016x", want)
	first := runRep(w, cfg.seed, p, &repClock{})
	if first.err == nil && first.out.digest != want {
		first.err = fmt.Errorf("%s: mirror digest %016x differs from the public runner's %016x", w.name, first.out.digest, want)
	}
	tally(first)

	// A traced run spends half of a time budget untraced, half traced.
	budget := cfg.budget
	if cfg.traced {
		budget /= 2
	}
	timed := repeat(w, cfg.seed, p, n, budget, nil, want)
	tally(timed...)
	ok := succeeded(timed)
	res.Metrics = endToEnd(ok)

	if cfg.traced {
		lr, err := tracedRun(w, cfg.seed, p, n, budget, want, tr, first, ok, stderr)
		if err != nil {
			res.Problems = append(res.Problems, err.Error())
		}
		tally(lr.reps...)
		res.PerLayer = lr.metrics
		res.LargestLayer = lr.largest
	}
	res.FailedFrac = float64(res.Failed) / float64(res.Attempted)
	res.Correct = res.Failed == 0 && len(res.Problems) == 0
	return res
}

// publicDigest runs the public figure runner; a panic there is reported,
// not fatal.
func publicDigest(w *workload, seed uint64, p params) (d uint64, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%s: public runner panicked: %v", w.name, r)
		}
	}()
	return w.public(seed, p), nil
}

func succeeded(reps []repResult) []repResult {
	var ok []repResult
	for _, r := range reps {
		if r.err == nil {
			ok = append(ok, r)
		}
	}
	return ok
}

// endToEnd names the end-to-end metrics, their units and whether the
// fastest rep (true) or the median rep (false) gives the value.
var endToEndMetrics = []struct {
	name, unit string
	fastest    bool
	of         func(r repResult) float64
}{
	{"setup_s", "s", false, func(r repResult) float64 { return r.setup.Seconds() }},
	{"slowdown", "host_s/sim_s", true, func(r repResult) float64 {
		return ratio(float64(r.run.Nanoseconds()), float64(r.sim)) // both in ns
	}},
	{"ns_per_event", "ns", true, func(r repResult) float64 {
		return ratio(float64(r.run.Nanoseconds()), float64(r.events))
	}},
	{"allocs_per_event", "allocs/event", false, func(r repResult) float64 {
		return ratio(float64(r.mallocs), float64(r.events))
	}},
	{"live_mb", "MiB", false, func(r repResult) float64 { return float64(r.live) / (1 << 20) }},
}

func endToEnd(reps []repResult) []metric {
	var out []metric
	for _, m := range endToEndMetrics {
		xs := make([]float64, len(reps))
		for i, r := range reps {
			xs[i] = m.of(r)
		}
		lo, hi := minMax(xs)
		med := median(xs)
		v := med
		if m.fastest {
			v = lo
		}
		out = append(out, metric{Name: m.name, Value: v, Unit: m.unit, Median: med, Max: hi, Reps: len(xs)})
	}
	return out
}

func printResult(w io.Writer, r *result) {
	status := "ok"
	if !r.Correct {
		status = "FAILED"
	}
	fmt.Fprintf(w, "== %s: %s, %d reps attempted, %d failed, digest %s\n", r.Name, status, r.Attempted, r.Failed, r.Digest)
	for _, p := range r.Problems {
		fmt.Fprintf(w, "   problem: %s\n", p)
	}
	for _, m := range r.Metrics {
		fmt.Fprintf(w, "   %-18s %14.6g %-13s median %.6g  max %.6g  reps %d\n", m.Name, m.Value, m.Unit, m.Median, m.Max, m.Reps)
	}
	if len(r.PerLayer) > 0 {
		fmt.Fprintf(w, "   per layer (largest: %s)\n", r.LargestLayer)
		for _, m := range r.PerLayer {
			if m.Absent {
				fmt.Fprintf(w, "   %-34s %14s %s\n", m.Name, "absent", m.Unit)
				continue
			}
			fmt.Fprintf(w, "   %-34s %14.6g %s\n", m.Name, m.Value, m.Unit)
		}
	}
}

// resultLine renders the one-line summary: end-to-end metrics, or the
// per-layer ones for a traced run.
func resultLine(rep report) (string, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: true, Metrics: map[string]value{}}
	for _, r := range rep.Workloads {
		line.Correct = line.Correct && r.Correct
		line.Attempted += r.Attempted
		line.Failed += r.Failed
		ms := r.Metrics
		if rep.Traced {
			ms = r.PerLayer
		}
		prefix := ""
		if len(rep.Workloads) > 1 {
			prefix = r.Name + "."
		}
		for _, m := range ms {
			line.Metrics[prefix+m.Name] = value{m.Value, m.Unit}
		}
	}
	b, err := json.Marshal(line)
	return string(b), err
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return nil
}

// writeChromeTrace writes spans in the Chrome trace event format, one
// track per workload.
func writeChromeTrace(path string, spans []span, ws []*workload) error {
	type args struct {
		Workload string `json:"workload"`
		Rep      int    `json:"rep"`
		Parent   string `json:"parent,omitempty"`
	}
	type event struct {
		Name string  `json:"name"`
		Cat  string  `json:"cat"`
		Ph   string  `json:"ph"`
		Ts   float64 `json:"ts"`
		Dur  float64 `json:"dur"`
		Pid  int     `json:"pid"`
		Tid  int     `json:"tid"`
		Args args    `json:"args"`
	}
	tid := func(name string) int {
		for i, w := range ws {
			if w.name == name {
				return i + 1
			}
		}
		return 0
	}
	us := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
	evs := make([]event, 0, len(spans))
	for _, s := range spans {
		evs = append(evs, event{
			Name: s.name, Cat: s.cat, Ph: "X", Ts: us(s.start), Dur: us(s.end - s.start),
			Pid: 1, Tid: tid(s.workload), Args: args{s.workload, s.rep, s.parent},
		})
	}
	return writeJSON(path, struct {
		TraceEvents []event `json:"traceEvents"`
	}{evs})
}
