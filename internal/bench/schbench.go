package bench

import (
	"fmt"

	"skyloft/internal/apps/schbench"
	"skyloft/internal/baseline/linuxsim"
	"skyloft/internal/core"
	"skyloft/internal/cycles"
	"skyloft/internal/policy"
	"skyloft/internal/policy/cfs"
	"skyloft/internal/policy/eevdf"
	"skyloft/internal/policy/fifo"
	"skyloft/internal/policy/rr"
	"skyloft/internal/simtime"
	"skyloft/internal/stats"
)

// Fig. 5 and Fig. 6 (§5.1): schbench wakeup latency across schedulers and
// preemption granularities.

// SchbenchResult is one schbench run's wakeup-latency distribution.
type SchbenchResult struct {
	Scheduler string
	Workers   int
	Hist      *stats.Hist
}

// SkyloftSched names a Skyloft per-CPU policy configuration for schbench.
type SkyloftSched string

const (
	SkyloftRR    SkyloftSched = "skyloft-rr"
	SkyloftCFS   SkyloftSched = "skyloft-cfs"
	SkyloftEEVDF SkyloftSched = "skyloft-eevdf"
	SkyloftFIFO  SkyloftSched = "skyloft-fifo"
)

// SkyloftScheds lists the Fig. 5 Skyloft configurations.
func SkyloftScheds() []SkyloftSched { return []SkyloftSched{SkyloftRR, SkyloftCFS, SkyloftEEVDF} }

func skyloftPolicy(s SkyloftSched, slice simtime.Duration) policy.Policy {
	switch s {
	case SkyloftRR:
		if slice <= 0 {
			slice = 50 * simtime.Microsecond // Table 5
		}
		return rr.New(slice)
	case SkyloftCFS:
		return cfs.New(cfs.DefaultParams())
	case SkyloftEEVDF:
		return eevdf.New(eevdf.DefaultParams())
	case SkyloftFIFO:
		return fifo.New()
	default:
		panic("bench: unknown skyloft scheduler " + string(s))
	}
}

// SchbenchSkyloft runs schbench on a Skyloft per-CPU policy with the
// 100 kHz delegated user timer.
func SchbenchSkyloft(s SkyloftSched, slice simtime.Duration, workers, reqPerWorker int, seed uint64) SchbenchResult {
	e := core.New(core.Config{
		Machine:   newMachine(),
		CPUs:      cpuList(Fig5Cores),
		Mode:      core.PerCPU,
		Policy:    skyloftPolicy(s, slice),
		Costs:     core.SkyloftCosts(cycles.Default()),
		TimerMode: core.TimerLAPIC,
		TimerHz:   SkyloftTimerHz,
		Seed:      seed,
	})
	defer e.Shutdown()
	app := e.NewApp("schbench")
	cfg := schbench.DefaultConfig(workers)
	cfg.RequestsPerWorker = reqPerWorker
	b := schbench.Launch(app, cfg)
	e.RunUntil(5*simtime.Second*simtime.Time(1+workers/8), b.Done)
	name := string(s)
	if s == SkyloftRR && slice > 0 {
		name = fmt.Sprintf("skyloft-rr-%v", slice)
	}
	return SchbenchResult{Scheduler: name, Workers: workers, Hist: e.WakeupHist}
}

// SchbenchLinux runs schbench on a simulated-Linux variant.
func SchbenchLinux(v linuxsim.Variant, workers, reqPerWorker int, seed uint64) SchbenchResult {
	m := newMachine()
	k := linuxsim.New(v, m, Fig5Cores, seed)
	defer k.Shutdown()
	cfg := schbench.DefaultConfig(workers)
	cfg.RequestsPerWorker = reqPerWorker
	b := schbench.Launch(k, cfg)
	k.RunUntil(60*simtime.Second, b.Done)
	return SchbenchResult{Scheduler: string(v), Workers: workers, Hist: k.WakeupHist}
}

// Fig5 sweeps worker counts over every scheduler of Fig. 5 and returns a
// table of p99 wakeup latencies in µs (plus a p50 table).
func Fig5(workerCounts []int, reqPerWorker int, seed uint64) (p99, p50 *stats.Table) {
	var cols []string
	for _, v := range linuxsim.Variants() {
		cols = append(cols, string(v))
	}
	for _, s := range SkyloftScheds() {
		cols = append(cols, string(s))
	}
	p99 = stats.NewTable("Fig 5: schbench p99 wakeup latency (us)", "workers", cols...)
	p50 = stats.NewTable("Fig 5: schbench p50 wakeup latency (us)", "workers", cols...)
	type cell struct {
		w   int
		col string
		run func() SchbenchResult
	}
	var cells []cell
	for _, w := range workerCounts {
		w := w
		for _, v := range linuxsim.Variants() {
			v := v
			cells = append(cells, cell{w, string(v), func() SchbenchResult {
				return SchbenchLinux(v, w, reqPerWorker, seed)
			}})
		}
		for _, s := range SkyloftScheds() {
			s := s
			cells = append(cells, cell{w, string(s), func() SchbenchResult {
				return SchbenchSkyloft(s, 0, w, reqPerWorker, seed)
			}})
		}
	}
	results := Sweep(cells, func(c cell) SchbenchResult { return c.run() })
	perRow := len(cells) / len(workerCounts)
	for i, w := range workerCounts {
		r99 := map[string]float64{}
		r50 := map[string]float64{}
		for j := 0; j < perRow; j++ {
			c, res := cells[i*perRow+j], results[i*perRow+j]
			r99[c.col] = res.Hist.P99().Micros()
			r50[c.col] = res.Hist.P50().Micros()
		}
		p99.Add(float64(w), r99)
		p50.Add(float64(w), r50)
	}
	return p99, p50
}

// Fig6 sweeps RR time slices (Fig. 6): smaller slices yield lower wakeup
// latency; Skyloft-FIFO is the infinite-slice endpoint.
func Fig6(workerCounts []int, slices []simtime.Duration, reqPerWorker int, seed uint64) *stats.Table {
	var cols []string
	for _, s := range slices {
		cols = append(cols, fmt.Sprintf("rr-%v", s))
	}
	cols = append(cols, "fifo")
	t := stats.NewTable("Fig 6: schbench p99 wakeup latency by RR slice (us)", "workers", cols...)
	var xs []float64
	var cells []gridCell
	for _, w := range workerCounts {
		w := w
		xs = append(xs, float64(w))
		for _, s := range slices {
			s := s
			cells = append(cells, gridCell{x: float64(w), col: fmt.Sprintf("rr-%v", s), run: func() float64 {
				return SchbenchSkyloft(SkyloftRR, s, w, reqPerWorker, seed).Hist.P99().Micros()
			}})
		}
		cells = append(cells, gridCell{x: float64(w), col: "fifo", run: func() float64 {
			return SchbenchSkyloft(SkyloftFIFO, 0, w, reqPerWorker, seed).Hist.P99().Micros()
		}})
	}
	for i, row := range sweepGrid(xs, cells) {
		t.Add(xs[i], row)
	}
	return t
}
