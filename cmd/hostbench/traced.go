package main

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"runtime"
	"runtime/pprof"
	"time"
)

// counterNames lists the per-layer counters with their units, in report
// order.
var counterNames = []struct{ name, unit string }{
	{"simtime.events", "count"},
	{"hw.ipis", "count"},
	{"hw.timer_fires", "count"},
	{"hw.irqs_coalesced", "count"},
	{"uintrsim.delivered", "count"},
	{"uintrsim.dropped", "count"},
	{"uintrsim.rescans", "count"},
	{"core.preemptions", "count"},
	{"core.steals", "count"},
	{"ksched.ctx_switches", "count"},
	{"loadgen.requests", "count"},
	{"apps.completed", "count"},
	{"apps.completion_ratio", "ratio"},
	{"trace.events", "count"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_ns_per_event", "ns"},
	{"hostbench.window_us_p50", "us"},
	{"hostbench.window_us_p99", "us"},
	{"hostbench.profile_samples", "count"},
	{"hostbench.trace_overhead_pct", "%"},
}

// perLayerNames lists every per-layer metric name and unit in report
// order: ns and allocs per event for each layer, then the counters.
func perLayerNames() []struct{ name, unit string } {
	var out []struct{ name, unit string }
	for _, l := range layers {
		out = append(out,
			struct{ name, unit string }{l + ".ns_per_event", "ns"},
			struct{ name, unit string }{l + ".allocs_per_event", "allocs/event"})
	}
	return append(out, counterNames...)
}

// layerReport is the traced run's output: its metrics, the layer with the
// most CPU samples, and every rep it ran.
type layerReport struct {
	metrics []metric
	largest string
	reps    []repResult
}

// tracedRun repeats the timed reps under a CPU profile, runs one rep
// with every allocation profiled, and folds both by layer. first is the
// warm-up rep, whose counters it reports; untraced are the successful
// untraced reps.
func tracedRun(w *workload, seed uint64, p params, n int, budget time.Duration, want uint64, tr *tracer, first repResult, untraced []repResult, stderr io.Writer) (layerReport, error) {
	var lr layerReport
	var buf bytes.Buffer
	// pprof.StartCPUProfile fixes 100 Hz and cannot lower an active rate,
	// so setting the rate first raises it (the runtime prints a warning).
	runtime.SetCPUProfileRate(profileHz)
	if err := pprof.StartCPUProfile(&buf); err != nil {
		runtime.SetCPUProfileRate(0)
		return lr, fmt.Errorf("%s: starting CPU profile: %w", w.name, err)
	}
	nwin := len(tr.windows)
	t0 := now()
	traced := repeat(w, seed, p, n, budget, tr, want)
	wall := now().Sub(t0)
	pprof.StopCPUProfile()
	windows := tr.windows[nwin:]
	lr.reps = traced

	var events uint64
	for _, r := range traced {
		events += r.events
	}
	prof, err := parseProfile(buf.Bytes())
	if err != nil {
		return lr, fmt.Errorf("%s: CPU profile: %w", w.name, err)
	}
	cpu, samples, err := fold(prof, "samples")
	if err != nil {
		return lr, fmt.Errorf("%s: CPU profile: %w", w.name, err)
	}
	if samples < 1000 {
		fmt.Fprintf(stderr, "hostbench: %s: only %d CPU samples; run longer for steadier layer shares\n", w.name, samples)
	}
	allocs, memRep, err := allocRep(w, seed, p, want)
	lr.reps = append(lr.reps, memRep)
	if err != nil {
		return lr, fmt.Errorf("%s: allocation profile: %w", w.name, err)
	}

	values := map[string]float64{}
	absent := map[string]bool{}
	perEvent := ratio(float64(wall.Nanoseconds()), float64(events))
	var sum float64
	best := int64(-1)
	for _, l := range layers {
		ns := ratio(float64(cpu[l]), float64(samples)) * perEvent
		sum += ns
		values[l+".ns_per_event"] = ns
		values[l+".allocs_per_event"] = ratio(float64(allocs[l]), float64(memRep.events))
		if cpu[l] > best {
			best, lr.largest = cpu[l], l
		}
	}
	var check error
	if math.Abs(sum-perEvent) > 0.05*perEvent {
		check = fmt.Errorf("%s: per-layer ns_per_event sum %.2f is not within 5%% of traced wall time / events %.2f", w.name, sum, perEvent)
	}

	values["simtime.events"] = float64(first.events)
	counters := first.out.counters
	if req := counters["loadgen.requests"]; req > 0 {
		values["apps.completion_ratio"] = counters["apps.completed"] / req
	}
	var gcs, pause []float64
	for _, r := range untraced {
		gcs = append(gcs, float64(r.gcs))
		pause = append(pause, ratio(float64(r.pauseNs), float64(r.events)))
	}
	values["runtime.gc_cycles"] = median(gcs)
	values["runtime.gc_pause_ns_per_event"] = median(pause)
	values["hostbench.window_us_p50"] = quantile(windows, 0.50)
	values["hostbench.window_us_p99"] = quantile(windows, 0.99)
	values["hostbench.profile_samples"] = float64(samples)
	fastest := fastestRun(untraced)
	values["hostbench.trace_overhead_pct"] = 100 * ratio(float64(fastestRun(succeeded(traced))-fastest), float64(fastest))
	// The rest come from the warm-up rep's registries and clients.
	for _, c := range counterNames {
		if _, ok := values[c.name]; ok {
			continue
		}
		if v, ok := counters[c.name]; ok {
			values[c.name] = v
		} else {
			absent[c.name] = true
		}
	}

	for _, m := range perLayerNames() {
		lr.metrics = append(lr.metrics, metric{Name: m.name, Value: values[m.name], Unit: m.unit, Absent: absent[m.name]})
	}
	return lr, check
}

// allocRep runs one rep with every allocation of its run phases
// profiled and returns those allocations by layer. The allocation profile
// is cumulative, so it is read before and after the rep; both reads use
// rate 0, which leaves every record unscaled, so the difference is
// exactly the rep's.
func allocRep(w *workload, seed uint64, p params, want uint64) (map[string]int64, repResult, error) {
	old := runtime.MemProfileRate
	defer func() { runtime.MemProfileRate = old }()
	runtime.MemProfileRate = 0
	before, err := allocProfile()
	if err != nil {
		return nil, repResult{err: err}, err
	}
	r := runRep(w, seed, p, &repClock{profileAllocs: true})
	if r.err == nil && r.out.digest != want {
		r.err = fmt.Errorf("%s allocation rep: digest %016x differs from the public runner's %016x", w.name, r.out.digest, want)
	}
	after, err := allocProfile()
	if err != nil {
		return nil, r, err
	}
	b, _, err := fold(before, "alloc_objects")
	if err != nil {
		return nil, r, err
	}
	a, _, err := fold(after, "alloc_objects")
	if err != nil {
		return nil, r, err
	}
	delta := map[string]int64{}
	for _, l := range layers {
		delta[l] = a[l] - b[l]
	}
	return delta, r, nil
}

// allocProfile reads the cumulative allocation profile. Records are
// published when a GC cycle completes, so it collects first.
func allocProfile() (*profile, error) {
	runtime.GC()
	runtime.GC()
	var buf bytes.Buffer
	if err := pprof.Lookup("allocs").WriteTo(&buf, 0); err != nil {
		return nil, err
	}
	return parseProfile(buf.Bytes())
}
