// Package bench is the experiment harness: one runner per table or figure
// of the paper's evaluation (§5). Each runner assembles the machine, the
// system under test, the workload, and the measurement window, and returns
// the rows the paper plots. The cmd/ tools and the repository's Go
// benchmarks are thin wrappers over this package; EXPERIMENTS.md records
// paper-vs-measured for every experiment.
package bench

import (
	"skyloft/internal/hw"
	"skyloft/internal/loadgen"
	"skyloft/internal/simtime"
)

// Defaults shared across experiments (the paper's testbed: two 24-core
// sockets).
const (
	// Fig5Cores is the isolated-core count for schbench (§5.1).
	Fig5Cores = 24
	// Fig7Workers is the worker count for the synthetic experiments
	// (§5.2): one additional core hosts the load generator + dispatcher.
	Fig7Workers = 20
	// Fig8aWorkers saturates Memcached (§5.3).
	Fig8aWorkers = 4
	// Fig8bWorkers saturates the RocksDB server (§5.3).
	Fig8bWorkers = 14
	// SkyloftTimerHz is Skyloft's user timer frequency (Table 5).
	SkyloftTimerHz = 100_000
)

// newMachine builds the standard evaluation server.
func newMachine() *hw.Machine {
	return hw.NewMachine(hw.DefaultConfig())
}

func cpuList(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// Capacity reports the theoretical max throughput (requests per second) of
// nworkers cores under the given request mix.
func Capacity(nworkers int, classes []loadgen.Class) float64 {
	mean := loadgen.MeanService(classes)
	return float64(nworkers) * float64(simtime.Second) / float64(mean)
}

// LoadPoint is one measurement at an offered load.
type LoadPoint struct {
	Offered    float64 // offered load, requests/s
	Throughput float64 // measured completions/s
	P50        float64 // µs
	P99        float64 // µs
	P999Slow   float64 // 99.9th percentile slowdown (dimensionless)
	BEShare    float64 // best-effort CPU share, if applicable
	Done       uint64
}

// MaxThroughputUnderSLO scans points (ascending offered load) and returns
// the highest measured throughput whose p99 is within slo µs — the paper's
// "maximum throughput" metric.
func MaxThroughputUnderSLO(points []LoadPoint, sloP99Micros float64) float64 {
	best := 0.0
	for _, p := range points {
		if p.P99 <= sloP99Micros && p.Throughput > best {
			best = p.Throughput
		}
	}
	return best
}

// MaxLoadUnderSlowdownSLO returns the highest measured throughput whose
// p99.9 slowdown is within the target (Fig. 8b's metric, target 50×).
func MaxLoadUnderSlowdownSLO(points []LoadPoint, slo float64) float64 {
	best := 0.0
	for _, p := range points {
		if p.P999Slow > 0 && p.P999Slow <= slo && p.Throughput > best {
			best = p.Throughput
		}
	}
	return best
}
