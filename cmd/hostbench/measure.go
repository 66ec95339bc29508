package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"sort"
	"time"

	"skyloft/internal/simtime"
)

// epoch is the process start; span timestamps count from it.
var epoch = now()

// now reads the host clock. Every timing in the benchmark goes through it.
//
//simlint:allow wallclock hostbench measures the simulator's host time; no reading feeds back into a simulation
func now() time.Time { return time.Now() }

// window is the simulated-time slice runs are driven in. Run and RunUntil
// stop only between events, so slicing a run changes no dispatch.
const window = simtime.Millisecond

// phaseKind classifies a span of a rep.
type phaseKind int

const (
	phSetup    phaseKind = iota // machine, engine, app and feeder built
	phRun                       // Run/RunUntil
	phVerify                    // digest, output checks, counters
	phTeardown                  // Shutdown
	phBench                     // the benchmark's own bookkeeping: MemStats reads, forced GC
	nPhases
)

var phaseNames = [nPhases]string{"setup", "run", "verify", "teardown", "hostbench"}

// span is one timed interval of a traced rep, kept in memory and written
// as a Chrome trace at exit.
type span struct {
	name, cat, parent string
	workload          string
	rep               int
	start, end        time.Duration // since epoch
}

// tracer collects a traced run's spans and its per-window host times.
type tracer struct {
	spans   []span
	windows []float64 // host µs per simulated ms, one per window
}

// repClock times one rep's phases. A workload's mirror calls phase at
// each boundary between public calls and run around its Run loop.
type repClock struct {
	workload string
	rep      int
	tr       *tracer // nil: untraced, keep totals only
	// profileAllocs records every allocation of the run phases in the
	// allocation profile (runtime.MemProfileRate = 1 during runs, 0
	// outside them).
	profileAllocs bool

	cur   phaseKind
	name  string
	start time.Time
	total [nPhases]time.Duration

	// Run accounting, summed over a rep's run phases.
	events                uint64
	sim                   simtime.Time
	mallocs, gcs, pauseNs uint64
	live                  uint64 // max heap+stack in use at the end of a run
	runStart              time.Time
	runWindows            int
	ms0                   runtime.MemStats
	dispatched0           uint64
	simStart              simtime.Time
}

// phase ends the current span and starts the next one.
func (rc *repClock) phase(p phaseKind, name string) {
	t := now()
	rc.close(t)
	rc.cur, rc.name, rc.start = p, name, t
}

func (rc *repClock) close(t time.Time) {
	if rc.name == "" {
		return
	}
	rc.total[rc.cur] += t.Sub(rc.start)
	if rc.tr != nil {
		rc.tr.spans = append(rc.tr.spans, span{
			name: rc.name, cat: phaseNames[rc.cur], parent: "rep",
			workload: rc.workload, rep: rc.rep,
			start: rc.start.Sub(epoch), end: t.Sub(epoch),
		})
	}
	rc.name = ""
}

// beginRun snapshots the allocator and the event core, then opens a run
// span.
func (rc *repClock) beginRun(clock simtime.EventCore) {
	rc.phase(phBench, "ReadMemStats")
	runtime.ReadMemStats(&rc.ms0)
	rc.dispatched0, rc.simStart = clock.Dispatched(), clock.Now()
	rc.runWindows = 0
	if rc.profileAllocs {
		runtime.MemProfileRate = 1
	}
	rc.phase(phRun, "Run")
	rc.runStart = rc.start
}

// endRun closes the run span and accounts its events, simulated time and
// allocations. Untraced, it then forces a GC and records the live heap
// while the machine is still built.
func (rc *repClock) endRun(clock simtime.EventCore) {
	rc.phase(phBench, "ReadMemStats")
	if rc.profileAllocs {
		runtime.MemProfileRate = 0
	}
	host := rc.start.Sub(rc.runStart)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	rc.mallocs += ms.Mallocs - rc.ms0.Mallocs
	rc.gcs += uint64(ms.NumGC - rc.ms0.NumGC)
	rc.pauseNs += ms.PauseTotalNs - rc.ms0.PauseTotalNs
	sim := clock.Now() - rc.simStart
	rc.events += clock.Dispatched() - rc.dispatched0
	rc.sim += sim
	if rc.tr != nil {
		if rc.runWindows == 0 && sim > 0 {
			// Not driven in windows (observed): one sample for the run.
			rc.tr.windows = append(rc.tr.windows, usPerSimMs(host, sim))
		}
		return
	}
	rc.phase(phBench, "GC")
	runtime.GC()
	runtime.ReadMemStats(&ms)
	if live := ms.HeapAlloc + ms.StackInuse; live > rc.live {
		rc.live = live
	}
}

// run drives step to horizon in simulated windows; step(t) runs the
// simulation up to t and reports whether it finished early.
func (rc *repClock) run(clock simtime.EventCore, horizon simtime.Time, step func(t simtime.Time) bool) {
	rc.beginRun(clock)
	for t := clock.Now() + window; ; t += window {
		if t > horizon {
			t = horizon
		}
		var w0 time.Time
		var sim0 simtime.Time
		if rc.tr != nil {
			w0, sim0 = now(), clock.Now()
		}
		done := step(t)
		if rc.tr != nil {
			w1 := now()
			rc.runWindows++
			rc.tr.spans = append(rc.tr.spans, span{
				name: "window", cat: "run", parent: "Run", workload: rc.workload, rep: rc.rep,
				start: w0.Sub(epoch), end: w1.Sub(epoch),
			})
			if sim := clock.Now() - sim0; sim > 0 {
				rc.tr.windows = append(rc.tr.windows, usPerSimMs(w1.Sub(w0), sim))
			}
		}
		if done || t >= horizon {
			break
		}
	}
	rc.endRun(clock)
}

func usPerSimMs(host time.Duration, sim simtime.Duration) float64 {
	return float64(host.Nanoseconds()) / 1e3 * float64(simtime.Millisecond) / float64(sim)
}

// repResult is one timed rep.
type repResult struct {
	setup, run time.Duration
	events     uint64
	sim        simtime.Time
	mallocs    uint64
	gcs        uint64
	pauseNs    uint64
	live       uint64
	out        outcome
	err        error
}

// runRep runs one mirror rep, timed by rc. A panic fails the rep instead
// of the process.
func runRep(w *workload, seed uint64, p params, rc *repClock) repResult {
	rc.workload = w.name
	idx, tr := rc.rep, rc.tr
	repStart := now()
	out, err := func() (out outcome, err error) {
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("%s rep %d panicked: %v", w.name, idx, r)
			}
		}()
		return w.mirror(seed, p, rc), nil
	}()
	rc.close(now())
	if tr != nil {
		tr.spans = append(tr.spans, span{
			name: "rep", cat: "rep", workload: w.name, rep: idx,
			start: repStart.Sub(epoch), end: now().Sub(epoch),
		})
	}
	if err == nil {
		err = out.err
	}
	if err == nil && rc.events == 0 {
		err = fmt.Errorf("%s rep %d dispatched no events", w.name, idx)
	}
	return repResult{
		setup: rc.total[phSetup], run: rc.total[phRun],
		events: rc.events, sim: rc.sim,
		mallocs: rc.mallocs, gcs: rc.gcs, pauseNs: rc.pauseNs, live: rc.live,
		out: out, err: err,
	}
}

// minBudgetReps is the fewest reps a time-budgeted loop runs.
const minBudgetReps = 3

// repeat runs n reps, or with budget > 0 starts reps until budget has
// elapsed (at least minBudgetReps). A rep whose digest is not want fails.
//
// Untraced reps start from a collected heap whose free memory has been
// returned to the OS, so every rep pays the first-touch page faults a
// fresh process pays. Left to the background scavenger, that cost came
// and went per process and made set-up times bimodal.
func repeat(w *workload, seed uint64, p params, n int, budget time.Duration, tr *tracer, want uint64) []repResult {
	var reps []repResult
	start := now()
	for i := 1; ; i++ {
		if budget > 0 {
			if i > minBudgetReps && now().Sub(start) >= budget {
				break
			}
		} else if i > n {
			break
		}
		if tr == nil {
			debug.FreeOSMemory()
		}
		r := runRep(w, seed, p, &repClock{rep: i, tr: tr})
		if r.err == nil && r.out.digest != want {
			r.err = fmt.Errorf("%s rep %d: digest %016x differs from the public runner's %016x", w.name, i, r.out.digest, want)
		}
		reps = append(reps, r)
	}
	return reps
}

// ---- estimators ----

// ratio is a/b, or 0 when b is 0 (a rep that dispatched nothing).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// fastestRun is the shortest run phase among reps.
func fastestRun(reps []repResult) time.Duration {
	var best time.Duration
	for i, r := range reps {
		if i == 0 || r.run < best {
			best = r.run
		}
	}
	return best
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quantile is the nearest-rank q-quantile of xs.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(0, min(i, len(s)-1))]
}

func minMax(xs []float64) (lo, hi float64) {
	for i, x := range xs {
		if i == 0 || x < lo {
			lo = x
		}
		if i == 0 || x > hi {
			hi = x
		}
	}
	return lo, hi
}
