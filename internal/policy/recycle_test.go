package policy_test

import (
	"reflect"
	"testing"

	"skyloft/internal/policy"
	"skyloft/internal/policy/cfs"
	"skyloft/internal/policy/edf"
	"skyloft/internal/policy/eevdf"
	"skyloft/internal/policy/mlfq"
	"skyloft/internal/sched"
	"skyloft/internal/simtime"
)

// TestRecycledThreadPolicyState guards the in-place reset of policy task
// data: the engine recycles thread descriptors, and a recycled descriptor
// still carries its previous life's *taskData. For every policy with task
// data, a life dirties it (vruntime, level, deadline, lag — through
// the policy's own callbacks), the thread terminates, and TaskInit must
// then yield exactly the state a brand-new thread gets, in the same object.
func TestRecycledThreadPolicyState(t *testing.T) {
	const relative = 40 * simtime.Microsecond
	for _, tc := range []struct {
		name  string
		pol   policy.Policy
		dirty func(policy.Policy, *sched.Thread) // policy-specific extra dirtying
	}{
		{"cfs", cfs.New(cfs.DefaultParams()), nil},
		{"eevdf", eevdf.New(eevdf.DefaultParams()), nil},
		{"mlfq", mlfq.New(mlfq.DefaultParams()), nil},
		{"edf", edf.New(relative), func(p policy.Policy, th *sched.Thread) {
			p.(*edf.Policy).SetRelative(th, 3*relative)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := tc.pol
			p.SchedInit(2)

			fresh := &sched.Thread{ID: 1, LastCPU: -1}
			p.TaskInit(fresh)

			th := &sched.Thread{ID: 2, LastCPU: -1}
			p.TaskInit(th)
			if tc.dirty != nil {
				tc.dirty(p, th)
			}
			// One life: enqueue, dispatch, run past every quantum, block
			// with a competitor queued (so EEVDF saves a non-zero lag).
			th.EnqueuedAt = 700
			p.TaskEnqueue(0, th, policy.EnqNew)
			if got := p.TaskDequeue(0); got != th {
				t.Fatalf("TaskDequeue = %v, want the enqueued thread", got)
			}
			th.LastCPU = 0 // as the engine does when it runs the pick
			other := &sched.Thread{ID: 3, LastCPU: -1}
			p.TaskInit(other)
			p.TaskEnqueue(0, other, policy.EnqNew)
			th.CPUTime += 80 * simtime.Microsecond
			p.SchedTimerTick(0, th, 80*simtime.Microsecond)
			if bn, ok := p.(policy.BlockNotifier); ok {
				bn.TaskBlock(0, th)
			}
			p.TaskTerminate(th)
			if reflect.DeepEqual(th.PolData, fresh.PolData) {
				t.Fatalf("life left no policy state to reset (%+v); the test proves nothing",
					reflect.ValueOf(th.PolData).Elem().Interface())
			}

			// The engine's recycling: same descriptor, fresh identity.
			old := th.PolData
			th.ID, th.State, th.CPUTime, th.EnqueuedAt = 4, sched.Created, 0, 0
			p.TaskInit(th)
			if th.PolData != old {
				t.Fatal("TaskInit replaced the recycled task data instead of resetting it")
			}
			if !reflect.DeepEqual(th.PolData, fresh.PolData) {
				t.Fatalf("recycled state %+v, fresh state %+v",
					reflect.ValueOf(th.PolData).Elem().Interface(),
					reflect.ValueOf(fresh.PolData).Elem().Interface())
			}
		})
	}
}
