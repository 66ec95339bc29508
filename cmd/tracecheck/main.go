// Command tracecheck validates a Perfetto/Chrome trace_event JSON file
// produced by the observability layer: the document must parse, carry a
// named track plus at least one complete-duration ("ph":"X") slice for every
// expected CPU, and every slice must have a non-negative duration. With
// -faults N it additionally requires N validated fault-instant events on
// the CPU tracks (chaos exports); with -flows N it requires N validated
// causal flow chains whose every point binds inside a slice (causal
// exports). It is the machine half of `make obs-smoke` and `make chaos`.
//
// Usage:
//
//	tracecheck -cpus 2 [-faults 1] [-flows 1] trace.json
package main

import (
	"flag"
	"fmt"
	"os"

	"skyloft/internal/obs"
)

func main() {
	cpus := flag.Int("cpus", 0, "expected number of per-CPU tracks")
	faults := flag.Int("faults", 0, "minimum fault instant events (chaos traces)")
	flows := flag.Int("flows", 0, "minimum causal flow chains (causal traces)")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: tracecheck -cpus N trace.json")
		os.Exit(2)
	}
	path := flag.Arg(0)

	if err := obs.CheckTraceFile(path, *cpus, *faults, *flows); err != nil {
		fmt.Fprintf(os.Stderr, "tracecheck: %s: %v\n", path, err)
		os.Exit(1)
	}
	fmt.Printf("tracecheck: %s OK (%d per-CPU tracks, >=%d fault instants, >=%d flow chains)\n",
		path, *cpus, *faults, *flows)
}
