// Package eevdf is Skyloft's Earliest Eligible Virtual Deadline First
// policy (§5.1), the principled replacement for CFS's heuristics adopted by
// Linux v6.6: each task carries a lag (its fair-share service deficit) and
// a virtual deadline; the scheduler runs the eligible task (lag >= 0) with
// the earliest deadline. Table 4 credits Skyloft's EEVDF with 579 lines
// against 7,102 in Linux v6.8.
package eevdf

import (
	"skyloft/internal/core"
	"skyloft/internal/policy"
	"skyloft/internal/sched"
	"skyloft/internal/simtime"
)

// Params holds the EEVDF tunables of Table 5.
type Params struct {
	// BaseSlice is the request size used to compute virtual deadlines
	// (Skyloft configuration: 12.5 µs).
	BaseSlice simtime.Duration
}

// DefaultParams is the paper's Skyloft EEVDF configuration.
func DefaultParams() Params { return Params{BaseSlice: 12500} }

// Policy implements core.Policy.
type Policy struct {
	P      Params
	rq     []runqueue
	placer policy.Placer
}

type runqueue struct {
	tasks []*sched.Thread
	// sum/n maintain the average vruntime over queued tasks — the zero
	// point for eligibility.
	sum float64
	n   int
}

type taskData struct {
	vruntime float64
	deadline float64
	lag      float64
	seenCPU  simtime.Duration
	slice    simtime.Duration
}

func td(t *sched.Thread) *taskData { return t.PolData.(*taskData) }

// New returns an EEVDF policy.
func New(p Params) *Policy {
	if p.BaseSlice <= 0 {
		panic("eevdf: BaseSlice must be positive")
	}
	return &Policy{P: p}
}

func (p *Policy) Name() string { return "skyloft-eevdf" }

func (p *Policy) SchedInit(ncpu int) { p.rq = make([]runqueue, ncpu) }

func (p *Policy) TaskInit(t *sched.Thread) { policy.ResetData[taskData](t) }

func (p *Policy) TaskTerminate(t *sched.Thread) {}

func (rq *runqueue) avg(extra *taskData) float64 {
	sum, n := rq.sum, rq.n
	if extra != nil {
		sum += extra.vruntime
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// fold charges CPU consumed since the last observation into vruntime.
func fold(t *sched.Thread) {
	d := td(t)
	delta := t.CPUTime - d.seenCPU
	if delta <= 0 {
		return
	}
	d.seenCPU = t.CPUTime
	d.vruntime += float64(delta)
	d.slice += delta
}

func (p *Policy) TaskEnqueue(cpu int, t *sched.Thread, flags core.EnqueueFlags) {
	rq := &p.rq[cpu]
	fold(t)
	d := td(t)
	d.slice = 0
	if flags&(core.EnqWakeup|core.EnqNew) != 0 {
		// Re-place relative to the current average, preserving the lag
		// saved at block time — the defining property of EEVDF placement.
		d.vruntime = rq.avg(nil) - d.lag
	}
	d.deadline = d.vruntime + float64(p.P.BaseSlice)
	rq.tasks = append(rq.tasks, t)
	rq.sum += d.vruntime
	rq.n++
}

// TaskDequeue picks the earliest virtual deadline among eligible tasks.
func (p *Policy) TaskDequeue(cpu int) *sched.Thread {
	rq := &p.rq[cpu]
	if len(rq.tasks) == 0 {
		return nil
	}
	avg := rq.avg(nil)
	best := -1
	for i, t := range rq.tasks {
		d := td(t)
		if d.vruntime > avg+1e-9 {
			continue
		}
		if best == -1 || d.deadline < td(rq.tasks[best]).deadline {
			best = i
		}
	}
	if best == -1 {
		// Nothing eligible (transient): take the smallest vruntime.
		best = 0
		for i, t := range rq.tasks {
			if td(t).vruntime < td(rq.tasks[best]).vruntime {
				best = i
			}
		}
	}
	t := rq.tasks[best]
	rq.tasks = append(rq.tasks[:best], rq.tasks[best+1:]...)
	rq.sum -= td(t).vruntime
	rq.n--
	return t
}

func (p *Policy) PickCPU(t *sched.Thread, idle []bool) int {
	return p.placer.Pick(t, idle)
}

// SchedTimerTick preempts the running task once it has consumed its base
// slice and a competitor is queued; its deadline advances so it re-queues
// behind tasks it has outrun.
func (p *Policy) SchedTimerTick(cpu int, curr *sched.Thread, ranFor simtime.Duration) bool {
	fold(curr)
	rq := &p.rq[cpu]
	if len(rq.tasks) == 0 {
		return false
	}
	d := td(curr)
	if d.slice < p.P.BaseSlice {
		return false
	}
	d.deadline = d.vruntime + float64(p.P.BaseSlice)
	return true
}

func (p *Policy) SchedBalance(cpu int) *sched.Thread { return nil }

// TaskBlock saves the blocking task's lag (task_block in Table 2), bounded
// to ±2 slices as in the kernel implementation.
func (p *Policy) TaskBlock(cpu int, t *sched.Thread) {
	fold(t)
	d := td(t)
	d.lag = p.rq[cpu].avg(d) - d.vruntime
	limit := 2 * float64(p.P.BaseSlice)
	if d.lag > limit {
		d.lag = limit
	}
	if d.lag < -limit {
		d.lag = -limit
	}
}
