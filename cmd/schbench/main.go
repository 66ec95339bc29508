// Command schbench regenerates Fig. 5 and Fig. 6 (§5.1): schbench wakeup
// latency under the Linux schedulers (SCHED_RR, CFS default/tuned, EEVDF
// default/tuned) and the Skyloft per-CPU policies (RR, CFS, EEVDF) driven
// by 100 kHz user-space timer interrupts; plus the RR time-slice sweep.
//
// The observability flags run an instrumented companion workload alongside:
// -trace-out exports it as Perfetto JSON, -metrics-out snapshots the metrics
// registry, -doctor-out writes the sched-doctor diagnosis as JSON, and
// -occupancy prints per-core busy/idle/kernel shares, and -causal-out
// writes the causal tracer's slow-episode exemplar document for
// cmd/skyloft-explain. Every *-out flag accepts "-" for stdout. The live
// flags (-live-out, -live-window, -live-http, -flight-dir) stream that
// companion run's telemetry while it executes — see cmd/skyloft-top.
//
// Usage:
//
//	schbench [-fig 5|6] [-reqs N] [-seed S] [-csv] \
//	         [-trace-out trace.json] [-metrics-out metrics.json] \
//	         [-doctor-out doctor.json] [-occupancy] \
//	         [-live-out live.ndjson] [-live-http 127.0.0.1:7077]
package main

import (
	"flag"
	"fmt"
	"os"

	"skyloft/internal/bench"
	"skyloft/internal/obs"
	"skyloft/internal/obs/doctor"
	"skyloft/internal/obs/live"
	"skyloft/internal/simtime"
	"skyloft/internal/stats"
)

func main() {
	fig := flag.Int("fig", 5, "figure to regenerate (5 or 6)")
	reqs := flag.Int("reqs", 50, "requests per worker")
	seed := flag.Uint64("seed", 1, "random seed")
	csv := flag.Bool("csv", false, "emit CSV instead of aligned text")
	of := obs.BindFlags()
	flag.Parse()

	workers := []int{8, 16, 24, 32, 40, 48, 56, 64}

	emit := func(t *stats.Table) {
		if *csv {
			fmt.Print(t.CSV())
		} else {
			fmt.Print(t.Render())
		}
		fmt.Println()
	}

	switch *fig {
	case 5:
		p99, p50 := bench.Fig5(workers, *reqs, *seed)
		emit(p99)
		emit(p50)
	case 6:
		slices := []simtime.Duration{
			25 * simtime.Microsecond,
			50 * simtime.Microsecond,
			100 * simtime.Microsecond,
			200 * simtime.Microsecond,
			400 * simtime.Microsecond,
		}
		emit(bench.Fig6(workers, slices, *reqs, *seed))
	default:
		fmt.Println("unknown figure; use -fig 5 or -fig 6")
	}

	if of.Active() {
		var sess *live.Session
		run := bench.ObservedRunOpts(*seed, 20*simtime.Millisecond, bench.ObserveOpts{
			Profile: of.Occupancy,
			Causal:  true,
			PreRun: func(h bench.RunHooks) {
				var err error
				sess, err = live.FromFlags(of, live.Config{}, live.Source{
					Clock:    h.Clock,
					Ring:     h.Ring,
					Registry: h.Registry,
					Profiler: h.Profiler,
					AppNames: h.AppNames,
					Workers:  h.Workers,
					Causal:   h.Causal,
				})
				if err != nil {
					fmt.Fprintln(os.Stderr, err)
					os.Exit(1)
				}
			},
		})
		if sess != nil {
			if err := sess.Close(); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			fmt.Println(sess.Summary())
		}
		if err := run.Spans.Validate(); err != nil {
			fmt.Fprintf(os.Stderr, "SPAN VIOLATION: %v\n", err)
			os.Exit(1)
		}
		if err := run.Spans.Report(os.Stdout, run.AppNames); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := run.Causal.Report(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := of.EmitTrace(run.Events, obs.ExportConfig{
			NumCPUs: run.Workers, AppNames: run.AppNames, Instants: true,
			Flows: run.Causal.FlowJourneys(),
		}); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := of.EmitCausal(run.Causal); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := of.EmitMetrics(run.Registry); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := of.EmitOccupancy(os.Stdout, run.Profiler, run.AppNames); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if of.DoctorOut != "" {
			diag := doctor.Analyze(run.Events, run.Spans, doctor.Config{
				TickPeriod: simtime.Second / bench.SkyloftTimerHz,
				Cores:      run.Workers,
			})
			if err := of.EmitDoctor(diag); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
		}
	}
}
