// Custom policy: the paper's central claim (§3.4, Table 4) is that a new
// scheduler is a few dozen lines against the Table 2 operations. This
// example implements a strict two-level priority policy — latency-critical
// tasks always preempt best-effort tasks at the next timer tick — in ~40
// lines, and shows it keeping LC latency flat while BE work soaks the
// remaining cycles.
//
// Run with:
//
//	go run ./examples/custom-policy
package main

import (
	"fmt"

	"skyloft/internal/core"
	"skyloft/internal/cycles"
	"skyloft/internal/hw"
	"skyloft/internal/policy"
	"skyloft/internal/sched"
	"skyloft/internal/simtime"
	"skyloft/internal/stats"
)

// prioPolicy is a strict-priority per-CPU scheduler: queue 0 (high) always
// beats queue 1 (low); a low-priority task is preempted as soon as a tick
// finds high-priority work queued.
type prioPolicy struct {
	high, low []policy.Deque
	placer    policy.Placer
	prioOf    func(t *sched.Thread) int
}

func (p *prioPolicy) Name() string { return "strict-priority" }
func (p *prioPolicy) SchedInit(ncpu int) {
	p.high = make([]policy.Deque, ncpu)
	p.low = make([]policy.Deque, ncpu)
}
func (p *prioPolicy) TaskInit(*sched.Thread)      {}
func (p *prioPolicy) TaskTerminate(*sched.Thread) {}

func (p *prioPolicy) TaskEnqueue(cpu int, t *sched.Thread, _ policy.EnqueueFlags) {
	if p.prioOf(t) == 0 {
		p.high[cpu].PushBack(t)
	} else {
		p.low[cpu].PushBack(t)
	}
}

func (p *prioPolicy) TaskDequeue(cpu int) *sched.Thread {
	if t := p.high[cpu].PopFront(); t != nil {
		return t
	}
	return p.low[cpu].PopFront()
}

func (p *prioPolicy) PickCPU(t *sched.Thread, idle []bool) int { return p.placer.Pick(t, idle) }

func (p *prioPolicy) SchedTimerTick(cpu int, curr *sched.Thread, _ simtime.Duration) bool {
	// Preempt a low-priority task whenever high-priority work waits.
	return p.prioOf(curr) == 1 && p.high[cpu].Len() > 0
}

func (p *prioPolicy) SchedBalance(cpu int) *sched.Thread {
	for v := range p.high {
		if v != cpu {
			if t := p.high[v].PopBack(); t != nil {
				return t
			}
		}
	}
	return nil
}

func main() {
	machine := hw.NewMachine(hw.DefaultConfig())
	// Priority by application: app 0 is latency-critical, app 1 is batch.
	pol := &prioPolicy{prioOf: func(t *sched.Thread) int {
		if t.App == 0 {
			return 0
		}
		return 1
	}}
	engine := core.New(core.Config{
		Machine:   machine,
		CPUs:      []int{0, 1},
		Mode:      core.PerCPU,
		Policy:    pol,
		Costs:     core.SkyloftCosts(cycles.Default()),
		TimerMode: core.TimerLAPIC,
		TimerHz:   100_000, // 10 µs preemption granularity
	})
	defer engine.Shutdown()

	lc := engine.NewApp("latency-critical")
	be := engine.NewApp("batch")

	// Batch app: two infinite spinners that would monopolise both cores.
	for i := 0; i < 2; i++ {
		be.Start("grind", func(e sched.Env) {
			for {
				e.Run(100 * simtime.Microsecond)
			}
		})
	}

	// LC app: a 10 µs request every 100 µs; record its sojourn time.
	lat := stats.NewHist()
	lc.Start("lc-gen", func(e sched.Env) {
		for i := 0; i < 1000; i++ {
			e.Spawn("lc-req", func(e sched.Env) {
				start := e.Now()
				e.Run(10 * simtime.Microsecond)
				lat.Record(e.Now() - start)
			})
			e.Sleep(100 * simtime.Microsecond)
		}
	})

	engine.Run(150 * simtime.Millisecond)

	total := 2 * 150 * simtime.Millisecond
	fmt.Printf("LC requests: %d, sojourn p50=%v p99=%v max=%v\n",
		lat.Count(), lat.P50(), lat.P99(), lat.Max())
	fmt.Printf("batch CPU share: %.1f%% (soaks everything the LC app leaves idle)\n",
		100*float64(engine.AppCPU(1))/float64(total))
	fmt.Printf("preemptions: %d, inter-app switches: %d\n",
		engine.Preemptions(), engine.KernelModule().Switches())
}
