package bench

import (
	"skyloft/internal/apps/batchapp"
	"skyloft/internal/apps/server"
	"skyloft/internal/baseline/ghostsim"
	"skyloft/internal/baseline/linuxsim"
	"skyloft/internal/baseline/shinjukusim"
	"skyloft/internal/core"
	"skyloft/internal/hw"
	"skyloft/internal/ksched"
	"skyloft/internal/loadgen"
	"skyloft/internal/netsim"
	"skyloft/internal/obs/causal"
	"skyloft/internal/policy/shinjuku"
	"skyloft/internal/sched"
	"skyloft/internal/simtime"
	"skyloft/internal/stats"
	"skyloft/internal/trace"
)

// Fig. 7 (§5.2): synthetic dispersive workload (99.5% × 4 µs, 0.5% × 10 ms)
// on centralized schedulers, alone (7a) and co-located with a batch
// application (7b/7c).

// SynthSystem names a system under test in Fig. 7.
type SynthSystem string

const (
	SynthSkyloft  SynthSystem = "skyloft"
	SynthShinjuku SynthSystem = "shinjuku"
	SynthGhost    SynthSystem = "ghost"
	SynthLinuxCFS SynthSystem = "linux-cfs"
)

// SynthSystems lists the Fig. 7a systems.
func SynthSystems() []SynthSystem {
	return []SynthSystem{SynthSkyloft, SynthShinjuku, SynthGhost, SynthLinuxCFS}
}

// SynthConfig parameterises one synthetic run.
type SynthConfig struct {
	System   SynthSystem
	Quantum  simtime.Duration // preemption quantum (30 µs is the paper's best)
	Rate     float64          // offered load, requests/s
	Duration simtime.Duration // measurement window
	Warmup   simtime.Duration
	WithBE   bool // co-locate the batch application (Fig. 7b/c)
	Seed     uint64

	// machine overrides the standard machine (cost-model ablations, the
	// event-core probe).
	machine *hw.Machine
	// tr, when set, records the run's schedule — the attach-only tests
	// compare trace hashes with and without an observer.
	tr *trace.Ring
	// ct, when set, traces every injected request's journey (requires tr —
	// the tracer folds dispatch events from the trace ring). The causal
	// probe and differential harness use it.
	ct *causal.Tracer
}

// RunSynthetic executes one load point.
func RunSynthetic(cfg SynthConfig) LoadPoint {
	if cfg.Quantum == 0 {
		cfg.Quantum = 30 * simtime.Microsecond
	}
	if cfg.Duration == 0 {
		cfg.Duration = 300 * simtime.Millisecond
	}
	if cfg.Warmup == 0 {
		cfg.Warmup = 30 * simtime.Millisecond
	}
	if cfg.System == SynthLinuxCFS {
		return runSyntheticLinux(cfg)
	}
	return runSyntheticCentral(cfg)
}

func runSyntheticCentral(cfg SynthConfig) LoadPoint {
	m := cfg.machine
	if m == nil {
		m = newMachine()
	}
	ncpu := Fig7Workers + 1 // dispatcher + workers
	var e *core.Engine
	var alloc *core.CoreAllocConfig
	if cfg.WithBE {
		alloc = &core.CoreAllocConfig{
			LCApp:               0,
			CongestionThreshold: 10 * simtime.Microsecond,
			CheckInterval:       5 * simtime.Microsecond,
			MaxBECores:          Fig7Workers, // BE may use every idle worker
		}
	}
	switch cfg.System {
	case SynthSkyloft:
		e = core.New(core.Config{
			Machine: m, CPUs: cpuList(ncpu), Mode: core.Centralized,
			Central:   shinjuku.New(cfg.Quantum),
			Costs:     core.SkyloftCosts(m.Cost),
			TimerMode: core.TimerNone, CoreAlloc: alloc, Trace: cfg.tr, Seed: cfg.Seed,
		})
	case SynthShinjuku:
		e = shinjukusim.New(shinjukusim.Config{
			Machine: m, CPUs: cpuList(ncpu), Quantum: cfg.Quantum, Seed: cfg.Seed,
		})
	case SynthGhost:
		e = ghostsim.New(ghostsim.Config{
			Machine: m, CPUs: cpuList(ncpu), Quantum: cfg.Quantum,
			CoreAlloc: alloc, Seed: cfg.Seed,
		})
	default:
		panic("bench: system " + string(cfg.System) + " is not centralized")
	}
	defer e.Shutdown()

	lc := e.NewApp("lc")
	var be *batchapp.Batch
	if cfg.WithBE && cfg.System != SynthShinjuku {
		beApp := e.NewApp("batch")
		be = batchapp.Launch(beApp, Fig7Workers, 50*simtime.Microsecond)
	}
	rec := loadgen.NewRecorder(cfg.Warmup)
	gen := loadgen.New(cfg.Rate, server.DispersiveClasses(), 1024, cfg.Seed)
	var ctr server.CausalTracer
	if cfg.ct != nil {
		if cfg.tr == nil {
			panic("bench: causal tracing needs a trace ring")
		}
		cfg.ct.Attach(cfg.tr)
		defer cfg.ct.Detach()
		cfg.ct.SetDeliveryProber(e)
		ctr = cfg.ct
	}
	server.FeedDirectObs(gen, m.Clock, lc, rec, 0, ctr)
	e.Run(simtime.Time(cfg.Warmup + cfg.Duration))
	gen.Stop()

	p := LoadPoint{
		Offered:    cfg.Rate,
		Throughput: rec.Throughput(),
		P50:        rec.Lat.P50().Micros(),
		P99:        rec.Lat.P99().Micros(),
		P999Slow:   rec.Slow.Quantile(0.999),
		Done:       rec.Done,
	}
	if be != nil {
		p.BEShare = float64(e.AppCPU(1)) / float64(simtime.Duration(Fig7Workers)*(cfg.Warmup+cfg.Duration))
	}
	return p
}

// runSyntheticLinux is the non-preemptive worker-pool baseline on CFS: all
// cores run pool workers popping a shared ring, scheduled by default CFS.
func runSyntheticLinux(cfg SynthConfig) LoadPoint {
	m := newMachine()
	ncores := Fig7Workers + 1 // Linux gets the dispatcher core too (§5.2)
	k := linuxsim.New(linuxsim.CFSDefault, m, ncores, cfg.Seed)
	defer k.Shutdown()

	rec := loadgen.NewRecorder(cfg.Warmup)
	nic := netsim.NewNIC(m.Clock, m.Cost, ncores)
	server.NewWorkerPool(k, k, nic, rec, ncores, server.RunService)

	var be []*sched.Thread
	if cfg.WithBE {
		spin := func(e sched.Env) {
			for {
				e.Run(50 * simtime.Microsecond)
			}
		}
		for i := 0; i < ncores; i++ {
			be = append(be, k.StartClass("batch", ksched.ClassBatch, spin))
		}
	}

	gen := loadgen.New(cfg.Rate, server.DispersiveClasses(), 1024, cfg.Seed)
	server.Feed(gen, m.Clock, nic, 0)
	k.Run(simtime.Time(cfg.Warmup + cfg.Duration))
	gen.Stop()

	p := LoadPoint{
		Offered:    cfg.Rate,
		Throughput: rec.Throughput(),
		P50:        rec.Lat.P50().Micros(),
		P99:        rec.Lat.P99().Micros(),
		P999Slow:   rec.Slow.Quantile(0.999),
		Done:       rec.Done,
	}
	if cfg.WithBE {
		var beCPU simtime.Duration
		for _, b := range be {
			beCPU += b.CPUTime
		}
		p.BEShare = float64(beCPU) / float64(simtime.Duration(ncores)*(cfg.Warmup+cfg.Duration))
	}
	return p
}

// Fig7a sweeps offered load for each system and reports p99 latency (µs).
// The (load, system) grid runs as parallel independent trials.
func Fig7a(loads []float64, quantum simtime.Duration, dur simtime.Duration, seed uint64) *stats.Table {
	var cols []string
	for _, s := range SynthSystems() {
		cols = append(cols, string(s))
	}
	t := stats.NewTable("Fig 7a: dispersive load, p99 latency (us) vs offered load (krps)", "load_krps", cols...)
	var cells []gridCell
	for _, load := range loads {
		for _, s := range SynthSystems() {
			load, s := load, s
			cells = append(cells, gridCell{x: load, col: string(s), run: func() float64 {
				return RunSynthetic(SynthConfig{System: s, Quantum: quantum, Rate: load, Duration: dur, Seed: seed}).P99
			}})
		}
	}
	for i, row := range sweepGrid(loads, cells) {
		t.Add(loads[i]/1000, row)
	}
	return t
}

// Fig7bc sweeps offered load with the co-located batch application and
// reports both p99 latency and the batch CPU share.
func Fig7bc(loads []float64, quantum simtime.Duration, dur simtime.Duration, seed uint64) (latency, share *stats.Table) {
	systems := []SynthSystem{SynthSkyloft, SynthGhost, SynthShinjuku, SynthLinuxCFS}
	var cols []string
	for _, s := range systems {
		cols = append(cols, string(s))
	}
	latency = stats.NewTable("Fig 7b: dispersive + batch, p99 latency (us)", "load_krps", cols...)
	share = stats.NewTable("Fig 7c: batch application CPU share", "load_krps", cols...)
	type cell struct {
		load float64
		sys  SynthSystem
	}
	var cells []cell
	for _, load := range loads {
		for _, s := range systems {
			cells = append(cells, cell{load, s})
		}
	}
	points := Sweep(cells, func(c cell) LoadPoint {
		return RunSynthetic(SynthConfig{
			System: c.sys, Quantum: quantum, Rate: c.load, Duration: dur,
			WithBE: true, Seed: seed,
		})
	})
	for i, load := range loads {
		lrow := map[string]float64{}
		srow := map[string]float64{}
		for j, s := range systems {
			p := points[i*len(systems)+j]
			lrow[string(s)] = p.P99
			srow[string(s)] = p.BEShare
		}
		latency.Add(load/1000, lrow)
		share.Add(load/1000, srow)
	}
	return latency, share
}
