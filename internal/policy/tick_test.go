package policy_test

import (
	"testing"

	"skyloft/internal/policy"
	"skyloft/internal/policy/cfs"
	"skyloft/internal/policy/eevdf"
	"skyloft/internal/policy/rr"
	"skyloft/internal/policy/worksteal"
	"skyloft/internal/sched"
	"skyloft/internal/simtime"
)

// TestTimerTickDecidesFromSlice checks that each slice-based policy
// preempts from the engine's slice argument alone: with a competitor
// queued, a slice 1 ns short of the quantum keeps the task and the quantum
// itself preempts it, whatever the task's CPUTime says.
func TestTimerTickDecidesFromSlice(t *testing.T) {
	const quantum = 50 * simtime.Microsecond
	for _, tc := range []struct {
		name string
		pol  policy.Policy
	}{
		// One competitor queued: CFS's ideal slice is the latency target
		// over two tasks.
		{"cfs", cfs.New(cfs.Params{MinGranularity: 1, SchedLatency: 2 * quantum})},
		{"eevdf", eevdf.New(eevdf.Params{BaseSlice: quantum})},
		{"rr", rr.New(quantum)},
		{"worksteal", worksteal.New(quantum, 1)},
	} {
		for _, cpuTime := range []simtime.Duration{0, 10 * quantum} {
			p := tc.pol
			p.SchedInit(1)
			curr := &sched.Thread{ID: 1, LastCPU: -1}
			other := &sched.Thread{ID: 2, LastCPU: -1}
			p.TaskInit(curr)
			p.TaskInit(other)
			p.TaskEnqueue(0, curr, policy.EnqNew)
			if got := p.TaskDequeue(0); got != curr {
				t.Fatalf("%s: TaskDequeue = %v, want the only task", tc.name, got)
			}
			curr.LastCPU = 0
			p.TaskEnqueue(0, other, policy.EnqNew)
			curr.CPUTime = cpuTime
			if p.SchedTimerTick(0, curr, quantum-1) {
				t.Errorf("%s (CPUTime %v): preempted at slice %v < %v", tc.name, cpuTime, quantum-1, quantum)
			}
			if !p.SchedTimerTick(0, curr, quantum) {
				t.Errorf("%s (CPUTime %v): kept the task at slice %v", tc.name, cpuTime, quantum)
			}
		}
	}
}
