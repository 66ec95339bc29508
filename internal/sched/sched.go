// Package sched defines the engine-agnostic threading API that simulated
// applications are written against. The same workload code (schbench, the
// synthetic dispersive load, Memcached and RocksDB handlers, batch apps)
// runs unmodified on every scheduling engine in this repository — the
// Skyloft LibOS, the simulated Linux kernel, and the ghOSt / Shenango /
// Shinjuku baselines — exactly as the paper runs the same benchmarks across
// systems.
package sched

import (
	"fmt"

	"skyloft/internal/rng"
	"skyloft/internal/simtime"
)

// State is a thread's lifecycle state, managed by the hosting engine.
type State int8

const (
	Created State = iota
	Runnable
	Running
	Blocked  // waiting for Wake
	Sleeping // waiting for a timer
	Exited
)

func (s State) String() string {
	switch s {
	case Created:
		return "created"
	case Runnable:
		return "runnable"
	case Running:
		return "running"
	case Blocked:
		return "blocked"
	case Sleeping:
		return "sleeping"
	case Exited:
		return "exited"
	}
	return fmt.Sprintf("state(%d)", int(s))
}

// Func is a thread body.
type Func func(Env)

// Quick is the body of a quick thread (core.App.StartQuick), a request
// handler that needs the CPU once. The engine calls Begin at the thread's
// first dispatch: Begin does its work and issues at most one Run, as its
// last Env call, which sets the thread's CPU demand instead of suspending
// it. End runs at the instant that demand completes (at once if Begin
// issued no Run), and then the thread exits. Because Begin never suspends,
// no coroutine backs the thread, and any other request (Yield, Block,
// Sleep, IO, Fault, Wake, Spawn), a second Run or an Env call after the Run
// panics instead of running at the wrong instant.
type Quick interface {
	Begin(e Env)
	End(now simtime.Time)
}

// Thread is the engine-visible descriptor of one simulated thread. Fields
// other than the identity ones are owned by the hosting engine.
type Thread struct {
	ID   int
	Name string
	App  int // application index, for multi-application scheduling

	State       State
	WakePending bool // a Wake arrived while not blocked; next Block is a no-op

	// Scheduling bookkeeping shared by engines.
	CPUTime    simtime.Duration // total CPU consumed
	EnqueuedAt simtime.Time     // when it last became runnable
	WokenAt    simtime.Time     // when it was last woken from Blocked
	LastCPU    int              // core it last ran on

	// RecordWakeup opts this thread into the engine's wakeup-latency
	// histogram (schbench measures this for worker threads only);
	// WakeArmed is set by engines at wake and cleared when the thread
	// next gets the CPU.
	RecordWakeup bool
	WakeArmed    bool

	// Remaining work of the in-flight Run request (engines decrement this
	// as segments complete or are preempted).
	Remaining simtime.Duration

	// PolData is the policy-defined per-task field (task_init's argument
	// in the paper's Table 2). EngData is for engine internals.
	PolData any
	EngData any
}

func (t *Thread) String() string {
	return fmt.Sprintf("%s#%d(%s)", t.Name, t.ID, t.State)
}

// Op names a threading operation with an engine-specific cost (paper
// Table 7).
type Op int8

const (
	OpYield Op = iota
	OpSpawn
	OpMutex
	OpCondvar
)

// Env is the thread-facing API: every method is called from inside a thread
// body and may suspend the calling thread.
type Env interface {
	// Now reports the current virtual time.
	Now() simtime.Time
	// Self reports the calling thread's descriptor.
	Self() *Thread
	// Rand is a deterministic per-engine random stream for workload code.
	Rand() *rng.Rand

	// Run consumes d nanoseconds of CPU on whatever core the engine
	// schedules this thread to; it may be preempted and migrated while
	// running and returns once all d nanoseconds were executed.
	Run(d simtime.Duration)
	// Yield cedes the CPU, leaving the thread runnable.
	Yield()
	// Block parks the thread until another thread calls Wake on it. If a
	// Wake is already pending, Block consumes it and returns immediately.
	Block()
	// Sleep parks the thread for d nanoseconds of virtual time.
	Sleep(d simtime.Duration)
	// IO performs asynchronous I/O taking d: the thread parks while the
	// core stays free (the io_uring / SPDK mitigation of the paper's §6
	// "blocking events" discussion).
	IO(d simtime.Duration)
	// Fault simulates passive blocking (e.g. a page fault) taking d. On
	// Skyloft this stalls the core's active kernel thread — the Single
	// Binding Rule hazard §6 describes; on the Linux engine the kernel
	// simply schedules another thread.
	Fault(d simtime.Duration)
	// Spawn creates and starts a new thread in the caller's application.
	Spawn(name string, body Func) *Thread
	// Wake makes t runnable (or records a pending wake).
	Wake(t *Thread)

	// OpCost reports the engine's cost for op, letting shared primitives
	// (Mutex, Cond) charge engine-appropriate time.
	OpCost(op Op) simtime.Duration
}

// Requests exchanged between thread bodies and engines via proc.Ctx.Ask.
// Engines must handle all of these. A request travels as a pointer to a
// slot the thread's Env owns (one per type), never as a value: boxing a
// value into the Request interface would allocate on every Run or Sleep.
type (
	// RunReq asks for D nanoseconds of CPU. Response: nil when complete.
	RunReq struct{ D simtime.Duration }
	// YieldReq cedes the CPU. Response: nil when rescheduled.
	YieldReq struct{}
	// BlockReq parks until woken. Response: nil when woken.
	BlockReq struct{}
	// SleepReq parks for D. Response: nil when the timer fires.
	SleepReq struct{ D simtime.Duration }
	// IOReq parks for D of asynchronous I/O. Response: nil on completion.
	IOReq struct{ D simtime.Duration }
	// FaultReq blocks passively for D. Response: nil on completion.
	FaultReq struct{ D simtime.Duration }
	// SpawnReq creates a thread. Response: *Thread.
	SpawnReq struct {
		Name string
		Body Func
	}
	// WakeReq wakes T. Response: nil (processed synchronously).
	WakeReq struct{ T *Thread }
)
