// Command ablation probes the design choices behind Skyloft (DESIGN.md §4)
// beyond the paper's own figures:
//
//   - timer: periodic 100 kHz user-timer delegation vs one-shot deadline
//     re-arming (the §6 "kernel-bypass timer reset" extension);
//   - net: DPDK-style polling vs user-space MSI delivery (§6 "peripheral
//     interrupts");
//   - model: per-CPU (Fig. 2a) vs centralized (Fig. 2b) on the same
//     dispersive workload;
//   - costs: the Skyloft-vs-ghOSt tail ordering under a globally scaled
//     cost model (is the conclusion robust to the exact constants?);
//   - quantum: Skyloft's Fig. 7a p99 at 90% dispersive load with 15, 30
//     and 50 µs quanta (the paper's quantum comparison; -load does not
//     apply).
//
// Usage:
//
//	ablation [-which timer|net|model|costs|quantum|all] [-load 0.6] [-dur 200ms]
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"skyloft/internal/apps/server"
	"skyloft/internal/bench"
	"skyloft/internal/simtime"
)

func main() {
	which := flag.String("which", "all", "ablation to run: timer, net, model, costs, quantum, or all")
	load := flag.Float64("load", 0.6, "offered load as a fraction of capacity")
	dur := flag.Duration("dur", 200*time.Millisecond, "measurement window (virtual)")
	seed := flag.Uint64("seed", 1, "random seed")
	par := flag.Int("par", 0, "max parallel trials (0 = GOMAXPROCS, 1 = serial)")
	flag.Parse()
	bench.SetSweepWorkers(*par)

	d := simtime.Duration(dur.Nanoseconds())

	switch *which {
	case "timer", "net", "model", "costs", "quantum", "all":
	default:
		fmt.Fprintf(os.Stderr, "ablation: unknown -which %q (valid: timer, net, model, costs, quantum, all)\n", *which)
		os.Exit(2)
	}

	if *which == "timer" || *which == "all" {
		fmt.Println("# timer delegation: periodic vs one-shot deadline (RocksDB, 5us quantum)")
		for _, r := range bench.AblationTimerMode(*load, d, *seed) {
			fmt.Printf("  %-18s p99.9 slowdown=%7.1f  timer fires=%9d  sim events=%d\n",
				r.Mode, r.P999Slow, r.TimerFires, r.Events)
		}
		fmt.Println()
	}
	if *which == "net" || *which == "all" {
		fmt.Println("# packet delivery: polling vs user-space MSI (Memcached)")
		for _, r := range bench.AblationNetMode(*load, d, *seed) {
			fmt.Printf("  %-10s p99=%8.1fus  tput=%10.0f rps  MSIs=%d\n",
				r.Mode, r.P99, r.Tput, r.MSIs)
		}
		fmt.Println()
	}
	if *which == "model" || *which == "all" {
		perCPU, central := bench.AblationEngineModel(*load, d, *seed)
		fmt.Println("# scheduling model: per-CPU (Fig 2a) vs centralized (Fig 2b), dispersive load")
		fmt.Printf("  per-cpu+steal   p99=%8.1fus  tput=%10.0f\n", perCPU.P99, perCPU.Throughput)
		fmt.Printf("  centralized     p99=%8.1fus  tput=%10.0f\n", central.P99, central.Throughput)
		fmt.Println()
	}
	if *which == "costs" || *which == "all" {
		fmt.Println("# cost-model sensitivity: ghOSt/Skyloft p99 ratio under scaled costs")
		scales := []float64{0.25, 0.5, 1, 2, 4}
		ratios := bench.CostSensitivity(scales, d, *seed)
		for _, s := range scales {
			fmt.Printf("  scale %.2fx: ratio %.2f (must stay > 1)\n", s, ratios[s])
		}
		fmt.Println()
	}
	if *which == "quantum" || *which == "all" {
		fmt.Println("# preemption quantum: Skyloft at 90% dispersive load (Fig. 7a workload)")
		capacity := bench.Capacity(bench.Fig7Workers, server.DispersiveClasses())
		for _, q := range []simtime.Duration{15 * simtime.Microsecond, 30 * simtime.Microsecond, 50 * simtime.Microsecond} {
			p := bench.RunSynthetic(bench.SynthConfig{
				System: bench.SynthSkyloft, Quantum: q, Rate: 0.9 * capacity,
				Duration: d, Seed: *seed,
			})
			fmt.Printf("skyloft quantum=%v @90%%: p99=%.1fus tput=%.0f\n", q, p.P99, p.Throughput)
		}
	}
}
