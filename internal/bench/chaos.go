package bench

import (
	"fmt"

	"skyloft/internal/core"
	"skyloft/internal/faults"
	"skyloft/internal/obs"
	"skyloft/internal/policy/rr"
	"skyloft/internal/policy/shinjuku"
	"skyloft/internal/sched"
	"skyloft/internal/simtime"
	"skyloft/internal/stats"
	"skyloft/internal/trace"
)

// Chaos mode: run the standard two-app workload under a fault-injection
// plan with the scheduler hardening layer enabled and the invariant
// checker auditing after every event. Each plan is paired with the engine
// configuration whose delivery path it attacks (legacy-IPI preemption for
// ipi-drop, the LAPIC tick for timer-drift, UINTR notification for
// uintr-suppress) and with a clean twin — the same configuration minus the
// injector — that anchors the p99.9 degradation bound.

// ChaosDuration is the default virtual length of one chaos run: long
// enough that the preset fault windows ([0.5ms, 3ms)) have a clean lead-in
// and a clean recovery tail.
const ChaosDuration = 4 * simtime.Millisecond

// ChaosResult summarises one chaos run against its clean twin.
type ChaosResult struct {
	Plan string `json:"plan"`
	Seed uint64 `json:"seed"`
	Mode string `json:"mode"` // engine mode + preemption mechanism

	TraceHash  uint64 `json:"trace_hash"`
	Events     uint64 `json:"events"`
	Dispatched uint64 `json:"dispatched"`

	Injected faults.Counters     `json:"injected"`
	Recovery core.HardeningStats `json:"recovery"`

	Checks        uint64   `json:"invariant_checks"`
	Violations    uint64   `json:"invariant_violations"`
	ViolationMsgs []string `json:"violation_msgs,omitempty"`

	WakeP50Us  float64 `json:"wake_p50_us"`
	WakeP99Us  float64 `json:"wake_p99_us"`
	WakeP999Us float64 `json:"wake_p999_us"`
	// CleanP999Us is the clean twin's p99.9 wakeup latency; P999Ratio is
	// chaos/clean — the tail-degradation factor the gate bounds.
	CleanP999Us float64 `json:"clean_p999_us"`
	P999Ratio   float64 `json:"p999_ratio"`

	UINTRDropped  uint64 `json:"uintr_dropped"`
	IRQsCoalesced uint64 `json:"irqs_coalesced"`

	// Raw materials for exports (Perfetto), not part of the JSON summary.
	RawEvents []trace.Event `json:"-"`
	AppNames  []string      `json:"-"`
	Workers   int           `json:"-"`
}

// chaosRun executes the workload once. plan nil runs the clean twin:
// identical engine configuration (hardening on, checker attached), no
// injector. cfgName selects the engine configuration even when plan is nil.
// attach, when non-nil, runs just before the virtual run starts with the
// instrumented surfaces and the invariant checker — the flight probe wires
// the live bus and the checker's violation trigger there.
func chaosRun(cfgName string, plan *faults.Plan, seed uint64, dur simtime.Duration,
	attach func(RunHooks, *faults.InvariantChecker)) (*ChaosResult, error) {
	m := newMachine()
	tr := trace.New(1 << 16)

	cfg := core.Config{
		Machine: m, Trace: tr, Seed: seed,
		CPUs:      cpuList(4),
		Hardening: &core.HardeningConfig{},
	}
	var mode string
	switch cfgName {
	case "ipi-drop":
		// Legacy posted-interrupt preemption: the droppable physical-IPI path.
		cfg.Mode = core.Centralized
		cfg.Central = shinjuku.New(25 * simtime.Microsecond)
		cfg.Costs = core.ShinjukuCosts(m.Cost)
		cfg.TimerMode = core.TimerNone
		mode = "centralized/posted-intr"
	case "uintr-suppress":
		// SENDUIPI preemption: the suppressible notification path.
		cfg.Mode = core.Centralized
		cfg.Central = shinjuku.New(25 * simtime.Microsecond)
		cfg.Costs = core.SkyloftCosts(m.Cost)
		cfg.TimerMode = core.TimerNone
		mode = "centralized/user-ipi"
	case "timer-drift", "straggler-core":
		// The standard per-CPU profile: LAPIC tick drives RR preemption.
		cfg.Mode = core.PerCPU
		cfg.Policy = rr.New(25 * simtime.Microsecond)
		cfg.TimerMode = core.TimerLAPIC
		cfg.TimerHz = SkyloftTimerHz
		cfg.Costs = core.SkyloftCosts(m.Cost)
		mode = "percpu/lapic-tick"
	default:
		return nil, fmt.Errorf("bench: unknown chaos configuration %q", cfgName)
	}

	e := core.New(cfg)
	defer e.Shutdown()

	var in *faults.Injector
	if plan != nil {
		var err error
		in, err = faults.NewInjector(plan, m)
		if err != nil {
			return nil, err
		}
		in.Attach(tr)
	}
	checker := faults.NewChecker(e, 0)
	m.Clock.SetObserver(checker.Check)

	reg := &obs.Registry{}
	e.RegisterMetrics(reg)
	if in != nil {
		in.RegisterMetrics(reg)
	}

	lc := e.NewApp("lc")
	batch := e.NewApp("batch")
	for i := 0; i < 8; i++ {
		lc.Start("lc-w", func(env sched.Env) {
			for {
				env.Run(simtime.Duration(2+env.Rand().Intn(15)) * simtime.Microsecond)
				env.Sleep(simtime.Duration(5+env.Rand().Intn(40)) * simtime.Microsecond)
			}
		})
	}
	for i := 0; i < 4; i++ {
		batch.Start("batch-w", func(env sched.Env) {
			for {
				env.Run(simtime.Duration(50+env.Rand().Intn(200)) * simtime.Microsecond)
				if env.Rand().Bernoulli(0.2) {
					env.Sleep(simtime.Duration(10+env.Rand().Intn(50)) * simtime.Microsecond)
				} else if env.Rand().Bernoulli(0.3) {
					env.Yield()
				}
			}
		})
	}
	if attach != nil {
		attach(RunHooks{
			Clock:    m.Clock,
			Ring:     tr,
			Registry: reg,
			AppNames: e.AppNames(),
			Workers:  e.Workers(),
		}, checker)
	}
	e.Run(simtime.Time(dur))

	events := tr.Events()
	wake := stats.NewHist()
	for _, a := range obs.BuildSpans(events).PerApp() {
		wake.Merge(a.WakeupHist)
	}
	res := &ChaosResult{
		RawEvents:  events,
		AppNames:   e.AppNames(),
		Workers:    e.Workers(),
		Plan:       cfgName,
		Seed:       seed,
		Mode:       mode,
		TraceHash:  tr.Hash(),
		Events:     tr.Total(),
		Dispatched: m.Clock.Dispatched(),
		Recovery:   e.HardeningStats(),
		Checks:     checker.Checks(),
		Violations: checker.Count(),
		WakeP50Us:  wake.P50().Micros(),
		WakeP99Us:  wake.P99().Micros(),
		WakeP999Us: wake.P999().Micros(),
	}
	res.ViolationMsgs = append(res.ViolationMsgs, checker.Violations()...)
	if in != nil {
		res.Injected = in.Counters()
	}
	for _, s := range reg.Snapshot() {
		switch s.Name {
		case "uintr.dropped":
			res.UINTRDropped = uint64(s.Value)
		case "hw.irqs.coalesced":
			res.IRQsCoalesced = uint64(s.Value)
		}
	}
	return res, nil
}

// RunChaos executes the named preset plan at seed and fills in the
// clean-twin comparison. Duration <= 0 uses ChaosDuration.
func RunChaos(name string, seed uint64, dur simtime.Duration) (*ChaosResult, error) {
	if dur <= 0 {
		dur = ChaosDuration
	}
	plan, ok := faults.Preset(name, seed)
	if !ok {
		return nil, fmt.Errorf("bench: unknown chaos plan %q (have %v)", name, faults.PresetNames())
	}
	res, err := chaosRun(name, plan, seed, dur, nil)
	if err != nil {
		return nil, err
	}
	clean, err := chaosRun(name, nil, seed, dur, nil)
	if err != nil {
		return nil, err
	}
	res.CleanP999Us = clean.WakeP999Us
	if clean.WakeP999Us > 0 {
		res.P999Ratio = res.WakeP999Us / clean.WakeP999Us
	}
	return res, nil
}

// chaosExpectation is the per-plan gate clause: which recovery counter must
// be non-zero (proof the hardening engaged) and how much p99.9 tail
// degradation over the clean twin is tolerated.
type chaosExpectation struct {
	engaged      func(r *ChaosResult) (string, uint64)
	maxP999Ratio float64
}

var chaosExpect = map[string]chaosExpectation{
	// Dropped preemption IPIs must trigger retry-with-backoff.
	"ipi-drop": {
		engaged:      func(r *ChaosResult) (string, uint64) { return "ipi_retries", r.Recovery.IPIRetries },
		maxP999Ratio: 8,
	},
	// The tick keeps rearming through misses, so no wedge forms — the gate
	// proves the faults really fired and the invariants held regardless.
	"timer-drift": {
		engaged:      func(r *ChaosResult) (string, uint64) { return "timer_misses", r.Injected.TimerMisses },
		maxP999Ratio: 4,
	},
	// The stalled core goes silent past the budget: the watchdog must kick
	// or force-preempt it.
	"straggler-core": {
		engaged: func(r *ChaosResult) (string, uint64) {
			return "watchdog_recoveries", r.Recovery.WatchdogRecoveries
		},
		// A dark core parks whatever it was running for up to a full
		// watchdog budget (two orders above a clean wakeup), so the tail
		// multiple is intrinsically larger here.
		maxP999Ratio: 20,
	},
	// Suppressed notifications must be recovered by retry resends or
	// watchdog rescans.
	"uintr-suppress": {
		engaged: func(r *ChaosResult) (string, uint64) {
			return "ipi_retries+rescans", r.Recovery.IPIRetries + r.Recovery.Rescans
		},
		maxP999Ratio: 8,
	},
}

// ChaosGate runs each named preset plan (nil = all of them) twice at the
// given seed and collects failures: non-deterministic replay (the two runs'
// trace hashes, event totals or dispatched counts differ), any invariant
// violation, a plan that never injected, a hardening layer that never
// engaged, or unbounded p99.9 degradation. An empty failure list is a green
// gate.
func ChaosGate(seed uint64, dur simtime.Duration, names []string) ([]*ChaosResult, []string) {
	if names == nil {
		names = faults.PresetNames()
	}
	var results []*ChaosResult
	var failures []string
	for _, name := range names {
		r1, err := RunChaos(name, seed, dur)
		if err != nil {
			failures = append(failures, fmt.Sprintf("%s: %v", name, err))
			continue
		}
		r2, err := RunChaos(name, seed, dur)
		if err != nil {
			failures = append(failures, fmt.Sprintf("%s: replay: %v", name, err))
			continue
		}
		results = append(results, r1)
		if r1.TraceHash != r2.TraceHash || r1.Events != r2.Events || r1.Dispatched != r2.Dispatched {
			failures = append(failures, fmt.Sprintf(
				"%s: replay diverged: %016x/%d events/%d dispatched vs %016x/%d/%d",
				name, r1.TraceHash, r1.Events, r1.Dispatched,
				r2.TraceHash, r2.Events, r2.Dispatched))
		}
		if r1.Violations > 0 {
			msg := fmt.Sprintf("%s: %d invariant violations", name, r1.Violations)
			if len(r1.ViolationMsgs) > 0 {
				msg += ": " + r1.ViolationMsgs[0]
			}
			failures = append(failures, msg)
		}
		if r1.Injected.Total() == 0 {
			failures = append(failures, fmt.Sprintf("%s: plan injected nothing", name))
		}
		exp, ok := chaosExpect[name]
		if !ok {
			failures = append(failures, fmt.Sprintf("%s: no gate expectation defined", name))
			continue
		}
		if counter, n := exp.engaged(r1); n == 0 {
			failures = append(failures, fmt.Sprintf("%s: hardening never engaged (%s == 0)", name, counter))
		}
		if r1.CleanP999Us > 0 && r1.P999Ratio > exp.maxP999Ratio {
			failures = append(failures, fmt.Sprintf(
				"%s: p99.9 degraded %.1fx over clean twin (bound %.0fx: %.1fµs vs %.1fµs)",
				name, r1.P999Ratio, exp.maxP999Ratio, r1.WakeP999Us, r1.CleanP999Us))
		}
	}
	return results, failures
}
