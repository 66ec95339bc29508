package main

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"

	"skyloft/internal/apps/kvstore"
	"skyloft/internal/apps/schbench"
	"skyloft/internal/apps/server"
	"skyloft/internal/baseline/linuxsim"
	"skyloft/internal/bench"
	"skyloft/internal/core"
	"skyloft/internal/cycles"
	"skyloft/internal/hw"
	"skyloft/internal/loadgen"
	"skyloft/internal/netsim"
	"skyloft/internal/obs"
	"skyloft/internal/obs/live"
	"skyloft/internal/policy/cfs"
	"skyloft/internal/policy/shinjuku"
	"skyloft/internal/policy/worksteal"
	"skyloft/internal/sched"
	"skyloft/internal/simtime"
	"skyloft/internal/stats"
)

// params sizes one rep of a workload: a warm-up plus a measurement window
// of simulated time for the open-loop workloads, requests per worker for
// schbench.
type params struct {
	warmup, dur simtime.Duration
	reqs        int
}

// workload is one named benchmark input. public runs the internal/bench
// figure runner and digests its result; mirror rebuilds the same
// simulation from public constructors, reporting each phase to rc, and
// must produce the same digest.
type workload struct {
	name   string
	why    string
	reps   int // default timed reps
	full   params
	tiny   params // a few ms simulated: the mirror-fidelity test size
	public func(seed uint64, p params) uint64
	mirror func(seed uint64, p params, rc *repClock) outcome
}

// outcome is one mirror rep's result: its simulated digest, the layer
// counters read after the run, and the first output check that failed.
type outcome struct {
	digest   uint64
	counters map[string]float64
	err      error
}

var workloads = []*workload{
	{
		name: "dispersive",
		why:  "Fig. 7a centralized Skyloft at 80% dispersive load: event-core dominated, quick threads, bypasses proc, netsim, kvstore and obs",
		reps: 15,
		full: params{warmup: 30 * simtime.Millisecond, dur: simtime.Second},
		tiny: params{warmup: simtime.Millisecond, dur: 3 * simtime.Millisecond},
		public: func(seed uint64, p params) uint64 {
			return pointDigest(bench.RunSynthetic(bench.SynthConfig{
				System: bench.SynthSkyloft, Rate: dispersiveRate(),
				Duration: p.dur, Warmup: p.warmup, Seed: seed,
			}))
		},
		mirror: dispersiveMirror,
	},
	{
		name: "schbench",
		why:  "Fig. 5 pair at 32 workers, Skyloft-CFS with 100 kHz LAPIC user timers plus linux-cfs: periodic timer churn and the only ksched coverage",
		reps: 15,
		full: params{reqs: 200},
		tiny: params{reqs: 2},
		public: func(seed uint64, p params) uint64 {
			var h digest
			h.hist(bench.SchbenchSkyloft(bench.SkyloftCFS, 0, schbenchWorkers, p.reqs, seed).Hist)
			h.hist(bench.SchbenchLinux(linuxsim.CFSDefault, schbenchWorkers, p.reqs, seed).Hist)
			return uint64(h)
		},
		mirror: schbenchMirror,
	},
	{
		name:   "memcached",
		why:    "Fig. 8a Skyloft work stealing, 4 workers, NIC/RSS path, a goroutine thread per request at 80% USR load: the allocating per-request path",
		reps:   15,
		full:   params{warmup: 30 * simtime.Millisecond, dur: 120 * simtime.Millisecond},
		tiny:   params{warmup: simtime.Millisecond, dur: 2 * simtime.Millisecond},
		public: memcached.public,
		mirror: memcached.mirror,
	},
	{
		name:   "rocksdb",
		why:    "Fig. 8b Skyloft with 5 us LAPIC preemption, 14 workers, bimodal GET/SCAN on the LSM at 70% load: kvstore range scans dominate",
		reps:   9,
		full:   params{warmup: 30 * simtime.Millisecond, dur: 50 * simtime.Millisecond},
		tiny:   params{warmup: simtime.Millisecond, dur: 2 * simtime.Millisecond},
		public: rocksdb.public,
		mirror: rocksdb.mirror,
	},
	{
		name: "observed",
		why:  "bench.ObservedRunOpts with profiler, causal tracer and live bus: the only workload with the trace ring and its taps attached",
		reps: 15,
		full: params{dur: simtime.Second},
		tiny: params{dur: 2 * simtime.Millisecond},
		public: func(seed uint64, p params) uint64 {
			return observedDigest(bench.ObservedRunOpts(seed, p.dur, bench.ObserveOpts{Profile: true, Causal: true}))
		},
		mirror: observedMirror,
	},
}

func lookupWorkloads(name string) ([]*workload, error) {
	if name == "all" {
		return workloads, nil
	}
	for _, w := range workloads {
		if w.name == name {
			return []*workload{w}, nil
		}
	}
	names := []string{"all"}
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(names, ", "))
}

// digest is an FNV-1a fold over 64-bit words of simulated results.
type digest uint64

func (d *digest) add(v uint64) {
	if *d == 0 {
		*d = 14695981039346656037
	}
	for i := 0; i < 8; i++ {
		*d ^= digest(v & 0xff)
		*d *= 1099511628211
		v >>= 8
	}
}

func (d *digest) float(f float64) { d.add(math.Float64bits(f)) }

func (d *digest) hist(h *stats.Hist) {
	d.add(h.Count())
	h.Buckets(func(lower, _ simtime.Duration, n uint64) {
		d.add(uint64(lower))
		d.add(n)
	})
}

func pointDigest(p bench.LoadPoint) uint64 {
	var d digest
	d.float(p.Throughput)
	d.float(p.P50)
	d.float(p.P99)
	d.float(p.P999Slow)
	d.add(p.Done)
	return uint64(d)
}

// recorderPoint builds the LoadPoint the bench runners return from rec.
func recorderPoint(rec *loadgen.Recorder) bench.LoadPoint {
	return bench.LoadPoint{
		Throughput: rec.Throughput(),
		P50:        rec.Lat.P50().Micros(),
		P99:        rec.Lat.P99().Micros(),
		P999Slow:   rec.Slow.Quantile(0.999),
		Done:       rec.Done,
	}
}

func cpuList(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// registryNames maps the simulator's registry counters to the benchmark's
// layer counter names.
var registryNames = map[string]string{
	"hw.ipis.sent":        "hw.ipis",
	"hw.timer.fires":      "hw.timer_fires",
	"hw.irqs.coalesced":   "hw.irqs_coalesced",
	"uintr.delivered":     "uintrsim.delivered",
	"uintr.dropped":       "uintrsim.dropped",
	"uintr.rescans":       "uintrsim.rescans",
	"core.preemptions":    "core.preemptions",
	"core.steals":         "core.steals",
	"ksched.ctx_switches": "ksched.ctx_switches",
	"trace.events":        "trace.events",
}

// addRegistry sums reg's counters into counters under the benchmark's
// names. Counters a registry does not expose stay absent.
func addRegistry(counters map[string]float64, reg *obs.Registry) {
	for _, s := range reg.Snapshot() {
		if name, ok := registryNames[s.Name]; ok {
			counters[name] += s.Value
		}
	}
}

// ---- dispersive (Fig. 7a) ----

func dispersiveRate() float64 {
	return 0.8 * bench.Capacity(bench.Fig7Workers, server.DispersiveClasses())
}

func dispersiveMirror(seed uint64, p params, rc *repClock) outcome {
	rc.phase(phSetup, "hw.NewMachine")
	m := hw.NewMachine(hw.DefaultConfig())
	rc.phase(phSetup, "core.New")
	e := core.New(core.Config{
		Machine: m, CPUs: cpuList(bench.Fig7Workers + 1), Mode: core.Centralized,
		Central:   shinjuku.New(30 * simtime.Microsecond),
		Costs:     core.SkyloftCosts(m.Cost),
		TimerMode: core.TimerNone, Seed: seed,
	})
	rc.phase(phSetup, "NewApp")
	lc := e.NewApp("lc")
	rc.phase(phSetup, "loadgen.New+Feed")
	rec := loadgen.NewRecorder(p.warmup)
	gen := loadgen.New(dispersiveRate(), server.DispersiveClasses(), 1024, seed)
	server.FeedDirect(gen, m.Clock, lc, rec, 0)
	rc.run(m.Clock, p.warmup+p.dur, func(t simtime.Time) bool { e.Run(t); return false })
	gen.Stop()

	rc.phase(phVerify, "verify")
	out := outcome{digest: pointDigest(recorderPoint(rec)), counters: map[string]float64{}}
	if rec.Done == 0 {
		out.err = errors.New("dispersive: no request completed")
	}
	reg := &obs.Registry{}
	e.RegisterMetrics(reg)
	addRegistry(out.counters, reg)
	out.counters["loadgen.requests"] = float64(gen.Count())
	out.counters["apps.completed"] = float64(rec.Done)
	rc.phase(phTeardown, "Shutdown")
	e.Shutdown()
	return out
}

// ---- schbench (Fig. 5) ----

const schbenchWorkers = 32

func schbenchMirror(seed uint64, p params, rc *repClock) outcome {
	out := outcome{counters: map[string]float64{}}
	var d digest
	cfg := schbench.DefaultConfig(schbenchWorkers)
	cfg.RequestsPerWorker = p.reqs
	check := func(system string, b *schbench.Bench) {
		if !b.Done() && out.err == nil {
			out.err = fmt.Errorf("schbench %s: %d of %d requests completed", system, b.Completed(), cfg.Workers*cfg.RequestsPerWorker)
		}
		out.counters["loadgen.requests"] += float64(cfg.Workers * cfg.RequestsPerWorker)
		out.counters["apps.completed"] += float64(b.Completed())
	}

	rc.phase(phSetup, "hw.NewMachine")
	m := hw.NewMachine(hw.DefaultConfig())
	rc.phase(phSetup, "core.New")
	e := core.New(core.Config{
		Machine: m, CPUs: cpuList(bench.Fig5Cores), Mode: core.PerCPU,
		Policy:    cfs.New(cfs.DefaultParams()),
		Costs:     core.SkyloftCosts(cycles.Default()),
		TimerMode: core.TimerLAPIC, TimerHz: bench.SkyloftTimerHz, Seed: seed,
	})
	rc.phase(phSetup, "NewApp+Launch")
	b := schbench.Launch(e.NewApp("schbench"), cfg)
	rc.run(m.Clock, 5*simtime.Second*simtime.Time(1+schbenchWorkers/8), func(t simtime.Time) bool { return e.RunUntil(t, b.Done) })
	rc.phase(phVerify, "verify")
	d.hist(e.WakeupHist)
	check("skyloft-cfs", b)
	reg := &obs.Registry{}
	e.RegisterMetrics(reg)
	addRegistry(out.counters, reg)
	rc.phase(phTeardown, "Shutdown")
	e.Shutdown()

	rc.phase(phSetup, "hw.NewMachine")
	m = hw.NewMachine(hw.DefaultConfig())
	rc.phase(phSetup, "linuxsim.New")
	k := linuxsim.New(linuxsim.CFSDefault, m, bench.Fig5Cores, seed)
	rc.phase(phSetup, "Launch")
	b = schbench.Launch(k, cfg)
	rc.run(m.Clock, 60*simtime.Second, func(t simtime.Time) bool { return k.RunUntil(t, b.Done) })
	rc.phase(phVerify, "verify")
	d.hist(k.WakeupHist)
	check("linux-cfs", b)
	reg = &obs.Registry{}
	k.RegisterMetrics(reg)
	addRegistry(out.counters, reg)
	rc.phase(phTeardown, "Shutdown")
	k.Shutdown()

	out.digest = uint64(d)
	return out
}

// ---- memcached and rocksdb (Fig. 8) ----

// netApp is one Fig. 8 application on Skyloft work stealing over the NIC
// path. quantum > 0 selects LAPIC-timer preemption at that quantum.
type netApp struct {
	app     string
	workers int
	quantum simtime.Duration
	load    float64
	classes func() []loadgen.Class
	// handler builds the store (the preload is set-up work) and returns
	// the request handler, which counts wrong answers in *bad. It must
	// draw from e.Rand exactly as the bench runner's handler does.
	handler func(bad *int) server.Handler
}

var memcached = &netApp{
	app: "memcached", workers: bench.Fig8aWorkers, load: 0.8,
	classes: server.USRClasses,
	handler: func(bad *int) server.Handler {
		mc := kvstore.NewMemcache(64)
		mc.Preload(10000)
		return func(e sched.Env, p netsim.Packet) {
			key := fmt.Sprintf("key-%d", e.Rand().Intn(10000))
			if p.Class == 0 {
				// Every key is preloaded; SETs only ever write "updated".
				v, ok := mc.Get(key)
				if !ok || (v != "updated" && v[len("value-"):] != key[len("key-"):]) {
					*bad++
				}
			} else {
				mc.Set(key, "updated")
			}
			e.Run(p.Service)
		}
	},
}

var rocksdb = &netApp{
	app: "rocksdb", workers: bench.Fig8bWorkers, quantum: 5 * simtime.Microsecond, load: 0.7,
	classes: server.RocksDBClasses,
	handler: func(bad *int) server.Handler {
		db := kvstore.NewLSM(4096)
		for i := 0; i < 20000; i++ {
			db.Put(fmt.Sprintf("key-%08d", i), fmt.Sprintf("value-%d", i))
		}
		// want reports whether v is the preloaded value of key n.
		want := func(v string, n int) bool {
			got, err := strconv.Atoi(strings.TrimPrefix(v, "value-"))
			return err == nil && got == n
		}
		return func(e sched.Env, p netsim.Packet) {
			n := e.Rand().Intn(19000)
			if p.Class == 0 {
				if v, ok := db.Get(fmt.Sprintf("key-%08d", n)); !ok || !want(v, n) {
					*bad++
				}
			} else {
				vals := db.Scan(fmt.Sprintf("key-%08d", n), fmt.Sprintf("key-%08d", n+500), 500)
				if len(vals) != 500 || !want(vals[0], n) {
					*bad++
				}
			}
			e.Run(p.Service)
		}
	},
}

func (a *netApp) rate() float64 { return a.load * bench.Capacity(a.workers, a.classes()) }

func (a *netApp) public(seed uint64, p params) uint64 {
	sys := bench.NetSkyloft
	if a.quantum > 0 {
		sys = bench.NetSkyloftPre
	}
	return pointDigest(bench.RunNetApp(bench.NetConfig{
		System: sys, App: a.app, Workers: a.workers, Quantum: a.quantum,
		Rate: a.rate(), Duration: p.dur, Warmup: p.warmup, Seed: seed,
	}))
}

func (a *netApp) mirror(seed uint64, p params, rc *repClock) outcome {
	rc.phase(phSetup, "hw.NewMachine")
	m := hw.NewMachine(hw.DefaultConfig())
	rc.phase(phSetup, "core.New")
	cfg := core.Config{
		Machine: m, CPUs: cpuList(a.workers), Mode: core.PerCPU,
		Policy:    worksteal.New(a.quantum, seed),
		Costs:     core.SkyloftCosts(cycles.Default()),
		TimerMode: core.TimerNone, Seed: seed,
	}
	if a.quantum > 0 {
		cfg.TimerMode = core.TimerLAPIC
		cfg.TimerHz = int64(simtime.Second / a.quantum)
	}
	e := core.New(cfg)
	rc.phase(phSetup, "NewApp+handler")
	app := e.NewApp(a.app)
	rec := loadgen.NewRecorder(p.warmup)
	nic := netsim.NewNIC(m.Clock, m.Cost, e.Workers())
	var bad int
	server.NewThreadPerRequest(app, nic, rec, a.handler(&bad))
	rc.phase(phSetup, "loadgen.New+Feed")
	gen := loadgen.New(a.rate(), a.classes(), 4096, seed)
	server.Feed(gen, m.Clock, nic, 0)
	rc.run(m.Clock, p.warmup+p.dur, func(t simtime.Time) bool { e.Run(t); return false })
	gen.Stop()

	rc.phase(phVerify, "verify")
	out := outcome{digest: pointDigest(recorderPoint(rec)), counters: map[string]float64{}}
	switch {
	case bad > 0:
		out.err = fmt.Errorf("%s: %d requests got a wrong answer from kvstore", a.app, bad)
	case rec.Done == 0:
		out.err = fmt.Errorf("%s: no request completed", a.app)
	}
	reg := &obs.Registry{}
	e.RegisterMetrics(reg)
	addRegistry(out.counters, reg)
	out.counters["loadgen.requests"] = float64(gen.Count())
	out.counters["apps.completed"] = float64(rec.Done)
	rc.phase(phTeardown, "Shutdown")
	e.Shutdown()
	return out
}

// ---- observed (the instrumented skyloft-bench/skyloft-trace run) ----

func observedDigest(o *bench.Observed) uint64 {
	var d digest
	d.add(o.Ring.Hash())
	d.add(o.Spans.Hash())
	d.add(o.Causal.Hash())
	d.add(uint64(len(o.Events)))
	return uint64(d)
}

// observedMirror runs the public runner itself with the live bus attached
// in PreRun; the bus is attach-only, so the digest must still equal a run
// without it. Set-up ends at PreRun; the run span covers the rest of
// ObservedRunOpts, including its span stitching and Shutdown.
func observedMirror(seed uint64, p params, rc *repClock) outcome {
	rc.phase(phSetup, "bench.ObservedRunOpts")
	var bus *live.Bus
	var clock simtime.EventCore
	o := bench.ObservedRunOpts(seed, p.dur, bench.ObserveOpts{
		Profile: true, Causal: true,
		PreRun: func(h bench.RunHooks) {
			rc.phase(phSetup, "live.Attach")
			bus = live.Attach(live.Config{}, live.Source{
				Clock: h.Clock, Ring: h.Ring, Registry: h.Registry, Profiler: h.Profiler,
				AppNames: h.AppNames, Workers: h.Workers, Causal: h.Causal,
			})
			clock = h.Clock
			rc.beginRun(clock)
		},
	})
	rc.endRun(clock)

	rc.phase(phVerify, "verify")
	out := outcome{digest: observedDigest(o), counters: map[string]float64{}}
	if err := bus.Close(); err != nil {
		out.err = fmt.Errorf("observed: live bus: %w", err)
	}
	if err := o.Spans.Validate(); err != nil {
		out.err = fmt.Errorf("observed: %w", err)
	}
	addRegistry(out.counters, o.Registry)
	return out
}
