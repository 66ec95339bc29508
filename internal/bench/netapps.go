package bench

import (
	"fmt"

	"skyloft/internal/apps/kvstore"
	"skyloft/internal/apps/server"
	"skyloft/internal/baseline/shenangosim"
	"skyloft/internal/core"
	"skyloft/internal/cycles"
	"skyloft/internal/hw"
	"skyloft/internal/loadgen"
	"skyloft/internal/netsim"
	"skyloft/internal/obs/causal"
	"skyloft/internal/policy/worksteal"
	"skyloft/internal/sched"
	"skyloft/internal/simtime"
	"skyloft/internal/stats"
	"skyloft/internal/trace"
)

// Fig. 8 (§5.3): real applications over the kernel-bypass network path —
// Memcached under the light-tailed USR mix (8a) and a RocksDB server under
// the bimodal GET/SCAN mix (8b).

// NetSystem names a system under test in Fig. 8.
type NetSystem string

const (
	NetSkyloft       NetSystem = "skyloft"        // work stealing, no preemption
	NetSkyloftPre    NetSystem = "skyloft-q"      // work stealing + timer preemption
	NetSkyloftUtimer NetSystem = "skyloft-utimer" // preemption via dedicated utimer core
	NetShenango      NetSystem = "shenango"
)

// NetConfig parameterises one networking run.
type NetConfig struct {
	System   NetSystem
	App      string           // "memcached" or "rocksdb"
	Workers  int              // worker cores
	Quantum  simtime.Duration // preemption quantum for preemptive variants
	Rate     float64
	Duration simtime.Duration
	Warmup   simtime.Duration
	Seed     uint64

	// machine overrides the standard machine (tests read its clock).
	machine *hw.Machine
	// tr, when set, records the run's schedule for comparison across runs.
	tr *trace.Ring
	// ct, when set, traces every request's journey end to end over the NIC
	// path (requires tr): the request ID is the packet sequence number
	// assigned at netsim arrival, followed through RSS steering, the
	// ingress ring, binding to the serving thread, and the reply.
	ct *causal.Tracer
}

func netClasses(app string) []loadgen.Class {
	switch app {
	case "memcached":
		return server.USRClasses()
	case "rocksdb":
		return server.RocksDBClasses()
	default:
		panic("bench: unknown app " + app)
	}
}

// RunNetApp executes one load point of Fig. 8.
func RunNetApp(cfg NetConfig) LoadPoint {
	if cfg.Duration == 0 {
		cfg.Duration = 300 * simtime.Millisecond
	}
	if cfg.Warmup == 0 {
		cfg.Warmup = 30 * simtime.Millisecond
	}
	m := cfg.machine
	if m == nil {
		m = newMachine()
	}
	var e *core.Engine
	workers := cfg.Workers
	switch cfg.System {
	case NetSkyloft:
		e = core.New(core.Config{
			Machine: m, CPUs: cpuList(workers), Mode: core.PerCPU,
			Policy:    worksteal.New(0, cfg.Seed),
			Costs:     core.SkyloftCosts(cycles.Default()),
			TimerMode: core.TimerNone, Seed: cfg.Seed, Trace: cfg.tr,
		})
	case NetSkyloftPre:
		if cfg.Quantum <= 0 {
			panic("bench: preemptive variant needs a quantum")
		}
		hz := int64(simtime.Second / cfg.Quantum)
		e = core.New(core.Config{
			Machine: m, CPUs: cpuList(workers), Mode: core.PerCPU,
			Policy:    worksteal.New(cfg.Quantum, cfg.Seed),
			Costs:     core.SkyloftCosts(cycles.Default()),
			TimerMode: core.TimerLAPIC, TimerHz: hz, Seed: cfg.Seed, Trace: cfg.tr,
		})
	case NetSkyloftUtimer:
		if cfg.Quantum <= 0 {
			panic("bench: utimer variant needs a quantum")
		}
		// The utimer core replaces one worker (§5.3: 13 workers + utimer).
		e = core.New(core.Config{
			Machine: m, CPUs: cpuList(workers + 1), Mode: core.PerCPU,
			Policy:    worksteal.New(cfg.Quantum, cfg.Seed),
			Costs:     core.SkyloftCosts(cycles.Default()),
			TimerMode: core.TimerUtimer, UtimerQuantum: cfg.Quantum, Seed: cfg.Seed, Trace: cfg.tr,
		})
	case NetShenango:
		e = shenangosim.New(shenangosim.Config{Machine: m, CPUs: cpuList(workers), Seed: cfg.Seed})
	default:
		panic("bench: unknown system " + string(cfg.System))
	}
	defer e.Shutdown()

	app := e.NewApp(cfg.App)
	rec := loadgen.NewRecorder(cfg.Warmup)
	nic := netsim.NewNIC(m.Clock, m.Cost, e.Workers())
	var ctr server.CausalTracer
	if cfg.ct != nil {
		if cfg.tr == nil {
			panic("bench: causal tracing needs a trace ring")
		}
		cfg.ct.Attach(cfg.tr)
		defer cfg.ct.Detach()
		cfg.ct.SetDeliveryProber(e)
		nic.SetObserver(cfg.ct)
		ctr = cfg.ct
	}
	server.NewThreadPerRequestObs(app, nic, rec, makeHandler(cfg.App), ctr)

	gen := loadgen.New(cfg.Rate, netClasses(cfg.App), 4096, cfg.Seed)
	server.Feed(gen, m.Clock, nic, 0)
	e.Run(simtime.Time(cfg.Warmup + cfg.Duration))
	gen.Stop()

	return LoadPoint{
		Offered:    cfg.Rate,
		Throughput: rec.Throughput(),
		P50:        rec.Lat.P50().Micros(),
		P99:        rec.Lat.P99().Micros(),
		P999Slow:   rec.Slow.Quantile(0.999),
		Done:       rec.Done,
	}
}

// makeHandler builds the application request handler: real data-structure
// operations plus the measured service demand. Each handler formats its
// key table once and indexes it for the preload and every request.
func makeHandler(app string) server.Handler {
	switch app {
	case "memcached":
		keys := keyTable("key-%d", 10000)
		mc := kvstore.NewMemcache(64)
		for i, k := range keys {
			mc.Set(k, fmt.Sprintf("value-%d", i))
		}
		return func(e sched.Env, p netsim.Packet) {
			key := keys[e.Rand().Intn(len(keys))]
			if p.Class == 0 {
				mc.Get(key)
			} else {
				mc.Set(key, "updated")
			}
			e.Run(p.Service)
		}
	case "rocksdb":
		keys := keyTable("key-%08d", 20000)
		db := kvstore.NewLSM(4096)
		for i, k := range keys {
			db.Put(k, fmt.Sprintf("value-%d", i))
		}
		return func(e sched.Env, p netsim.Packet) {
			n := e.Rand().Intn(19000)
			if p.Class == 0 {
				db.Get(keys[n])
			} else {
				db.Scan(keys[n], keys[n+500], 500)
			}
			e.Run(p.Service)
		}
	default:
		panic("bench: unknown app " + app)
	}
}

// keyTable returns format rendered for 0..n-1.
func keyTable(format string, n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf(format, i)
	}
	return keys
}

// Fig8a sweeps load for Memcached: Skyloft (work stealing) vs Shenango;
// reports p99 latency in µs.
func Fig8a(loads []float64, dur simtime.Duration, seed uint64) *stats.Table {
	systems := []NetSystem{NetSkyloft, NetShenango}
	cols := []string{string(NetSkyloft), string(NetShenango)}
	t := stats.NewTable("Fig 8a: Memcached USR, p99 latency (us) vs offered load (krps)", "load_krps", cols...)
	var cells []gridCell
	for _, load := range loads {
		for _, s := range systems {
			load, s := load, s
			cells = append(cells, gridCell{x: load, col: string(s), run: func() float64 {
				return RunNetApp(NetConfig{
					System: s, App: "memcached", Workers: Fig8aWorkers,
					Rate: load, Duration: dur, Seed: seed,
				}).P99
			}})
		}
	}
	for i, row := range sweepGrid(loads, cells) {
		t.Add(loads[i]/1000, row)
	}
	return t
}

// Fig8b sweeps load for the RocksDB server: Skyloft with preemption quanta
// {5, 15, 30 µs}, the utimer variant at 5 µs (13 workers), and Shenango;
// reports the 99.9th-percentile slowdown.
func Fig8b(loads []float64, dur simtime.Duration, seed uint64) *stats.Table {
	type variant struct {
		name    string
		sys     NetSystem
		quantum simtime.Duration
		workers int
	}
	variants := []variant{
		{"skyloft-5us", NetSkyloftPre, 5 * simtime.Microsecond, Fig8bWorkers},
		{"skyloft-15us", NetSkyloftPre, 15 * simtime.Microsecond, Fig8bWorkers},
		{"skyloft-30us", NetSkyloftPre, 30 * simtime.Microsecond, Fig8bWorkers},
		{"skyloft-utimer-5us", NetSkyloftUtimer, 5 * simtime.Microsecond, Fig8bWorkers - 1},
		{"shenango", NetShenango, 0, Fig8bWorkers},
	}
	var cols []string
	for _, v := range variants {
		cols = append(cols, v.name)
	}
	t := stats.NewTable("Fig 8b: RocksDB bimodal, p99.9 slowdown vs offered load (krps)", "load_krps", cols...)
	var cells []gridCell
	for _, load := range loads {
		for _, v := range variants {
			load, v := load, v
			cells = append(cells, gridCell{x: load, col: v.name, run: func() float64 {
				return RunNetApp(NetConfig{
					System: v.sys, App: "rocksdb", Workers: v.workers,
					Quantum: v.quantum, Rate: load, Duration: dur, Seed: seed,
				}).P999Slow
			}})
		}
	}
	for i, row := range sweepGrid(loads, cells) {
		t.Add(loads[i]/1000, row)
	}
	return t
}
