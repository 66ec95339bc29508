// Multi-application scheduling under oversubscription: the §3.3/§5.2
// story with the hardening layer (DESIGN.md §10) underneath. A
// latency-critical application shares four workers with a best-effort
// antagonist whose bursts run for hundreds of microseconds. The core
// allocator grants idle workers to the antagonist and, when the LC queue
// congests, takes them back with a user-IPI preemption.
//
// To show the reclaim path survives a hostile delivery substrate, a fault
// plan suppresses 90% of user-IPI notifications during the middle of the
// run. A suppressed reclaim is recovered by the hardening layer: the
// preemption is resent with backoff, and the watchdog rescans posted but
// unnotified interrupts. The example exits non-zero unless a core was
// granted and reclaimed, the hardening layer engaged, and the cross-app
// invariants held at every event.
//
// Run with:
//
//	go run ./examples/multiapp
package main

import (
	"fmt"
	"os"

	"skyloft/internal/core"
	"skyloft/internal/faults"
	"skyloft/internal/hw"
	"skyloft/internal/obs"
	"skyloft/internal/policy/shinjuku"
	"skyloft/internal/sched"
	"skyloft/internal/simtime"
	"skyloft/internal/trace"
)

func main() {
	machine := hw.NewMachine(hw.DefaultConfig())
	tr := trace.New(1 << 16)

	engine := core.New(core.Config{
		Machine: machine,
		Trace:   tr,
		Seed:    1,
		CPUs:    []int{0, 1, 2, 3, 4}, // CPU 0 = dispatcher, 4 workers
		Mode:    core.Centralized,
		Central: shinjuku.New(25 * simtime.Microsecond),
		Costs:   core.SkyloftCosts(machine.Cost),
		CoreAlloc: &core.CoreAllocConfig{
			LCApp:               0,
			CongestionThreshold: 20 * simtime.Microsecond,
			CheckInterval:       5 * simtime.Microsecond,
			MaxBECores:          2,
		},
		TimerMode: core.TimerNone,
		Hardening: &core.HardeningConfig{},
	})
	defer engine.Shutdown()

	// The borrower-stall antagonist: from 0.5ms to 3ms, 90% of SENDUIPI
	// notifications vanish, so most reclaim preemptions never arrive on
	// their own.
	plan := &faults.Plan{Name: "borrower-stall", Seed: 1, Rules: []faults.Rule{
		{Kind: faults.UINTRSuppress, Core: -1,
			From:  simtime.Time(500 * simtime.Microsecond),
			Until: simtime.Time(3 * simtime.Millisecond), Rate: 0.9},
	}}
	injector, err := faults.NewInjector(plan, machine)
	if err != nil {
		fmt.Fprintln(os.Stderr, "multiapp:", err)
		os.Exit(1)
	}
	injector.Attach(tr)

	// Cross-app invariants — runnable accounting, grant uniqueness and
	// work conservation — audited at every event-core transition.
	checker := faults.NewChecker(engine, simtime.Millisecond)
	machine.Clock.SetObserver(checker.Check)

	lcApp := engine.NewApp("latency-critical")
	antagonist := engine.NewApp("antagonist")

	// LC load needs ~2.5 of the 4 workers on average: whenever the
	// antagonist holds granted cores, the central queue congests and the
	// allocator reclaims one.
	for i := 0; i < 8; i++ {
		lcApp.Start("lc-w", func(env sched.Env) {
			for {
				env.Run(simtime.Duration(5+env.Rand().Intn(16)) * simtime.Microsecond)
				env.Sleep(simtime.Duration(10+env.Rand().Intn(30)) * simtime.Microsecond)
			}
		})
	}
	// Antagonist bursts outlive the congestion threshold severalfold: a
	// reclaim whose notification is suppressed cannot end by the borrower
	// yielding in time.
	for i := 0; i < 3; i++ {
		antagonist.Start("antagonist-w", func(env sched.Env) {
			for {
				env.Run(simtime.Duration(80+env.Rand().Intn(220)) * simtime.Microsecond)
				if env.Rand().Bernoulli(0.1) {
					env.Sleep(simtime.Duration(5+env.Rand().Intn(20)) * simtime.Microsecond)
				}
			}
		})
	}

	engine.Run(simtime.Time(4 * simtime.Millisecond))

	// The allocator's reclaim count is published through the metrics
	// registry (core.be.preempts), like every other engine counter.
	reg := &obs.Registry{}
	engine.RegisterMetrics(reg)
	var reclaims uint64
	for _, s := range reg.Snapshot() {
		if s.Name == "core.be.preempts" {
			reclaims = uint64(s.Value)
		}
	}
	hs := engine.HardeningStats()
	fmt.Printf("cores:     %d granted to the antagonist, %d reclaimed\n", engine.BEGrants(), reclaims)
	fmt.Printf("hardening: %d IPI resends, %d rescans, %d watchdog recoveries\n",
		hs.IPIRetries, hs.Rescans, hs.WatchdogRecoveries)
	fmt.Printf("faults:    %d notifications suppressed; invariants: %d checks, %d violations\n",
		injector.Counters().Total(), checker.Checks(), checker.Count())

	failed := false
	if engine.BEGrants() == 0 || reclaims == 0 {
		fmt.Fprintln(os.Stderr, "FAIL: no core was granted and reclaimed — the allocator never engaged")
		failed = true
	}
	if hs.IPIRetries+hs.Rescans == 0 {
		fmt.Fprintln(os.Stderr, "FAIL: the hardening layer never engaged — the suppression did not bite")
		failed = true
	}
	if n := checker.Count(); n > 0 {
		fmt.Fprintf(os.Stderr, "FAIL: %d invariant violations: %s\n", n, checker.Violations()[0])
		failed = true
	}
	if failed {
		os.Exit(1)
	}
	fmt.Println("\nEven with 90% of preempt notifications suppressed, resends and rescans")
	fmt.Println("recovered the lost reclaims, and no invariant was violated.")
}
