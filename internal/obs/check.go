package obs

import (
	"encoding/json"
	"fmt"
	"os"

	"skyloft/internal/det"
)

// CheckTrace verifies a decoded trace_event document: every CPU in
// [0, cpus) must have a named thread track and at least one
// complete-duration slice, and no slice may have a negative duration.
func CheckTrace(tf *TraceFile, cpus int) error {
	if len(tf.TraceEvents) == 0 {
		return fmt.Errorf("no trace events")
	}
	named := map[int]bool{}
	slices := map[int]int{}
	for i, e := range tf.TraceEvents {
		switch e.Ph {
		case "M":
			if e.Name == "thread_name" {
				named[e.Tid] = true
			}
		case "X":
			if e.Dur < 0 {
				return fmt.Errorf("event %d: negative slice duration %v", i, e.Dur)
			}
			slices[e.Tid]++
		}
	}
	for cpu := 0; cpu < cpus; cpu++ {
		if !named[cpu] {
			return fmt.Errorf("cpu %d: no thread_name track", cpu)
		}
		if slices[cpu] == 0 {
			return fmt.Errorf("cpu %d: no complete-duration slices", cpu)
		}
	}
	return nil
}

// CheckFaultInstants verifies a chaos-run export: at least min instant
// events with category "fault" must be present, and each must be a named,
// thread-scoped instant pinned to a non-negative CPU track — the contract
// that lets a Perfetto view correlate tail slices with fault onset.
func CheckFaultInstants(tf *TraceFile, min int) error {
	found := 0
	for i, e := range tf.TraceEvents {
		if e.Cat != "fault" {
			continue
		}
		if e.Ph != "i" {
			return fmt.Errorf("event %d: fault event with ph %q, want instant", i, e.Ph)
		}
		if e.S != "t" {
			return fmt.Errorf("event %d: fault instant not thread-scoped (s=%q)", i, e.S)
		}
		if e.Tid < 0 {
			return fmt.Errorf("event %d: fault instant on negative track %d", i, e.Tid)
		}
		if e.Name == "" {
			return fmt.Errorf("event %d: fault instant without a name", i)
		}
		found++
	}
	if found < min {
		return fmt.Errorf("%d fault instants, want >= %d", found, min)
	}
	return nil
}

// CheckFlowEvents verifies causal flow chains: at least min distinct flow
// IDs must be present, each with exactly one start ("s") and one finish
// ("f", bound to the enclosing slice), and every flow point must land
// inside a complete-duration slice on its CPU track — the binding contract
// that makes Perfetto draw the arrow into the right slice.
func CheckFlowEvents(tf *TraceFile, min int) error {
	type span struct{ start, end float64 }
	slices := map[int][]span{}
	for _, e := range tf.TraceEvents {
		if e.Ph == "X" {
			slices[e.Tid] = append(slices[e.Tid], span{e.Ts, e.Ts + e.Dur})
		}
	}
	// Timestamps are float µs derived from int64 ns; a slice end computed as
	// start+dur can differ from the directly-converted flow timestamp by one
	// double ulp, so the boundary comparison gets a picosecond of slack.
	const eps = 1e-6
	inSlice := func(tid int, ts float64) bool {
		for _, s := range slices[tid] {
			if ts >= s.start-eps && ts <= s.end+eps {
				return true
			}
		}
		return false
	}
	type flowState struct{ starts, steps, finishes int }
	flows := map[uint64]*flowState{}
	for i, e := range tf.TraceEvents {
		if e.Cat != "causal" {
			continue
		}
		fs := flows[e.ID]
		if fs == nil {
			fs = &flowState{}
			flows[e.ID] = fs
		}
		switch e.Ph {
		case "s":
			fs.starts++
		case "t":
			fs.steps++
		case "f":
			if e.BP != "e" {
				return fmt.Errorf("event %d: flow finish without bp=e", i)
			}
			fs.finishes++
		default:
			return fmt.Errorf("event %d: causal event with ph %q, want s/t/f", i, e.Ph)
		}
		if e.Name == "" {
			return fmt.Errorf("event %d: flow event without a name", i)
		}
		if !inSlice(e.Tid, e.Ts) {
			return fmt.Errorf("event %d: flow point (id %d, ts %v) outside any slice on track %d", i, e.ID, e.Ts, e.Tid)
		}
	}
	for _, id := range det.SortedKeys(flows) {
		if fs := flows[id]; fs.starts != 1 || fs.finishes != 1 {
			return fmt.Errorf("flow %d: %d starts, %d finishes, want exactly 1 each", id, fs.starts, fs.finishes)
		}
	}
	if len(flows) < min {
		return fmt.Errorf("%d flow chains, want >= %d", len(flows), min)
	}
	return nil
}

// CheckTraceFile parses path as trace_event JSON and runs CheckTrace — the
// round-trip guard used by `make obs-smoke`. minFaults > 0 additionally
// requires that many validated fault instants (`make chaos`); minFlows > 0
// requires that many validated causal flow chains (`make obs-smoke`).
func CheckTraceFile(path string, cpus, minFaults, minFlows int) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var tf TraceFile
	if err := json.Unmarshal(data, &tf); err != nil {
		return fmt.Errorf("not valid trace_event JSON: %w", err)
	}
	if err := CheckTrace(&tf, cpus); err != nil {
		return err
	}
	if minFaults > 0 {
		if err := CheckFaultInstants(&tf, minFaults); err != nil {
			return err
		}
	}
	if minFlows > 0 {
		return CheckFlowEvents(&tf, minFlows)
	}
	return nil
}
