// Package mlfq is a Multi-Level Feedback Queue policy: tasks start at the
// highest priority and sink a level each time they exhaust that level's
// quantum, so short interactive requests finish ahead of CPU hogs without
// any prior knowledge of service times — a natural fit for the dispersive
// workloads of §5.2, and another demonstration that the Table 2 operations
// express classic schedulers in a few dozen lines.
package mlfq

import (
	"skyloft/internal/policy"
	"skyloft/internal/sched"
	"skyloft/internal/simtime"
)

// Params configure the queue ladder.
type Params struct {
	// Levels is the number of priority levels.
	Levels int
	// BaseQuantum is level 0's quantum; each level below doubles it.
	BaseQuantum simtime.Duration
	// BoostInterval periodically lifts every task back to the top level,
	// preventing starvation (0 disables boosting).
	BoostInterval simtime.Duration
}

// DefaultParams is a 4-level ladder with a 20 µs top quantum and 1 ms
// priority boosting.
func DefaultParams() Params {
	return Params{Levels: 4, BaseQuantum: 20 * simtime.Microsecond, BoostInterval: simtime.Millisecond}
}

// Policy implements policy.Policy.
type Policy struct {
	P      Params
	rq     []cpuQueues // per CPU
	placer policy.Placer
}

type cpuQueues struct {
	levels    []policy.Deque
	lastBoost simtime.Time
}

type taskData struct {
	level   int
	used    simtime.Duration // quantum consumed at the current level
	seenCPU simtime.Duration
}

func td(t *sched.Thread) *taskData { return t.PolData.(*taskData) }

// New returns an MLFQ policy.
func New(p Params) *Policy {
	if p.Levels <= 0 || p.BaseQuantum <= 0 {
		panic("mlfq: need positive Levels and BaseQuantum")
	}
	return &Policy{P: p}
}

func (p *Policy) Name() string { return "skyloft-mlfq" }

func (p *Policy) SchedInit(ncpu int) {
	p.rq = make([]cpuQueues, ncpu)
	for i := range p.rq {
		p.rq[i].levels = make([]policy.Deque, p.P.Levels)
	}
}

func (p *Policy) TaskInit(t *sched.Thread)      { policy.ResetData[taskData](t) }
func (p *Policy) TaskTerminate(t *sched.Thread) {}

func (p *Policy) quantum(level int) simtime.Duration {
	return p.P.BaseQuantum << uint(level)
}

func (p *Policy) TaskEnqueue(cpu int, t *sched.Thread, flags policy.EnqueueFlags) {
	d := td(t)
	d.seenCPU = t.CPUTime
	if flags&(policy.EnqNew|policy.EnqWakeup) != 0 {
		// I/O-bound behaviour is rewarded: waking tasks re-enter at the
		// top with a fresh quantum.
		d.level = 0
		d.used = 0
	}
	p.maybeBoost(cpu, t.EnqueuedAt)
	p.rq[cpu].levels[d.level].PushBack(t)
}

// maybeBoost lifts all queued tasks to level 0 every BoostInterval.
func (p *Policy) maybeBoost(cpu int, now simtime.Time) {
	q := &p.rq[cpu]
	if p.P.BoostInterval <= 0 || now-q.lastBoost < simtime.Time(p.P.BoostInterval) {
		return
	}
	q.lastBoost = now
	for lvl := 1; lvl < p.P.Levels; lvl++ {
		for {
			t := q.levels[lvl].PopFront()
			if t == nil {
				break
			}
			d := td(t)
			d.level = 0
			d.used = 0
			q.levels[0].PushBack(t)
		}
	}
}

func (p *Policy) TaskDequeue(cpu int) *sched.Thread {
	for lvl := range p.rq[cpu].levels {
		if t := p.rq[cpu].levels[lvl].PopFront(); t != nil {
			return t
		}
	}
	return nil
}

func (p *Policy) PickCPU(t *sched.Thread, idle []bool) int {
	return p.placer.Pick(t, idle)
}

// SchedTimerTick demotes a task that exhausted its level's quantum and
// preempts it if anyone else (at any level) is waiting. The allotment spans
// re-enqueues, so the policy counts it itself instead of reading the
// engine's slice.
func (p *Policy) SchedTimerTick(cpu int, curr *sched.Thread, _ simtime.Duration) bool {
	d := td(curr)
	d.used += curr.CPUTime - d.seenCPU
	d.seenCPU = curr.CPUTime
	if d.used < p.quantum(d.level) {
		return false
	}
	// Quantum exhausted: sink a level (bottom level round-robins).
	if d.level < p.P.Levels-1 {
		d.level++
	}
	d.used = 0
	for lvl := range p.rq[cpu].levels {
		if p.rq[cpu].levels[lvl].Len() > 0 {
			return true
		}
	}
	return false
}

func (p *Policy) SchedBalance(cpu int) *sched.Thread {
	// Steal from the highest non-empty level of any other CPU.
	for lvl := 0; lvl < p.P.Levels; lvl++ {
		for v := range p.rq {
			if v == cpu {
				continue
			}
			if t := p.rq[v].levels[lvl].PopBack(); t != nil {
				return t
			}
		}
	}
	return nil
}

// Level reports a task's current level (for tests).
func (p *Policy) Level(t *sched.Thread) int { return td(t).level }
