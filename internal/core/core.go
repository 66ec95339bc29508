// Package core implements the Skyloft LibOS: a general user-space
// scheduling framework with µs-scale preemption (paper §3). It manages
// user-level threads as the unit of scheduling, delegates per-core LAPIC
// timer interrupts to user space through the modelled UINTR hardware
// (§3.2), schedules threads from multiple applications over a shared
// runqueue under the Single Binding Rule (§3.3), and drives policies
// through the Table 2 scheduling-operations interface (policy.Policy), so
// that each is a few hundred lines (Table 4).
//
// The engine also powers the paper's comparison systems: ghOSt, Shenango
// and Shinjuku differ from Skyloft in decision costs, preemption mechanism
// and context-switch currency, all captured by EngineCosts profiles.
package core

import (
	"fmt"

	"skyloft/internal/cycles"
	"skyloft/internal/hw"
	"skyloft/internal/kmod"
	"skyloft/internal/netsim"
	"skyloft/internal/policy"
	"skyloft/internal/proc"
	"skyloft/internal/rng"
	"skyloft/internal/sched"
	"skyloft/internal/shm"
	"skyloft/internal/simtime"
	"skyloft/internal/stats"
	"skyloft/internal/trace"
	"skyloft/internal/uintrsim"
)

// Mode selects the scheduling model (Figure 2).
type Mode int

const (
	// PerCPU uses per-core runqueues with local timer preemption
	// (Fig. 2a).
	PerCPU Mode = iota
	// Centralized uses a dispatcher core with a global queue (Fig. 2b).
	Centralized
)

// TimerMode selects how ticks reach per-CPU schedulers.
type TimerMode int

const (
	// TimerLAPIC delegates each core's local APIC timer to user space via
	// the §3.2 SN-bit recipe — Skyloft's headline mechanism.
	TimerLAPIC TimerMode = iota
	// TimerUtimer emulates the timer with a dedicated core that sends
	// user IPIs (the §5.3 "utimer" comparison); it consumes CPUs[0].
	TimerUtimer
	// TimerNone disables ticks (cooperative scheduling only).
	TimerNone
	// TimerDeadline uses one-shot deadlines re-armed directly from user
	// space per dispatch (the §6 "kernel-bypass timer reset" extension):
	// no idle ticks at all, preemption exactly at the quantum boundary.
	TimerDeadline
)

// UINV is the physical notification vector Skyloft registers for user
// interrupts.
const UINV uint8 = 0xEF

// PreemptUserVector is the user vector dispatchers post to preempt workers.
const PreemptUserVector uint8 = 61

// legacyPreemptVector carries non-UINTR preemption (kernel IPI / signal
// baselines).
const legacyPreemptVector uint8 = 0xFD

// CoreAllocConfig enables Shenango-style core allocation between a
// latency-critical application and best-effort applications in the
// centralized model (§5.2 "multiple workloads").
type CoreAllocConfig struct {
	// LCApp is the latency-critical application's ID; all others are
	// best-effort.
	LCApp int
	// CongestionThreshold: if the oldest queued LC task has waited longer
	// than this, a best-effort core is reclaimed.
	CongestionThreshold simtime.Duration
	// CheckInterval is how often the dispatcher evaluates congestion
	// (Shenango uses 5 µs).
	CheckInterval simtime.Duration
	// MaxBECores caps cores concurrently granted to best-effort apps.
	MaxBECores int
}

// Config assembles an Engine.
type Config struct {
	Machine *hw.Machine
	// CPUs are the isolated cores. In Centralized mode CPUs[0] is the
	// dispatcher; in TimerUtimer mode CPUs[0] is the utimer core.
	CPUs      []int
	Mode      Mode
	Policy    policy.Policy // PerCPU mode
	Central   CentralPolicy // Centralized mode
	Costs     EngineCosts
	TimerMode TimerMode
	// TimerHz is the delegated LAPIC timer frequency (TimerLAPIC); the
	// paper's Skyloft configuration uses 100,000 Hz (Table 5).
	TimerHz int64
	// UtimerQuantum is the IPI period in TimerUtimer mode.
	UtimerQuantum simtime.Duration
	// DeadlineQuantum is the per-dispatch deadline in TimerDeadline mode.
	DeadlineQuantum simtime.Duration
	// Trace, when non-nil, records scheduling events (dispatches,
	// preemptions, wakes, application switches) for debugging and
	// invariant checking.
	Trace     *trace.Ring
	CoreAlloc *CoreAllocConfig
	Seed      uint64
	// Hardening, when non-nil, enables the fault-tolerance layer: the
	// per-core watchdog, UINTR notification rescans, and preemption-IPI
	// retry-with-backoff (harden.go). Nil adds no events to a run.
	Hardening *HardeningConfig
}

// App is one application scheduled by Skyloft.
type App struct {
	ID   int
	Name string
	e    *Engine
	meta *shm.AppMeta
	live int // live threads
}

// Engine is the Skyloft scheduler instance.
type Engine struct {
	m    *hw.Machine
	cost cycles.Model
	ec   EngineCosts
	cfg  Config

	mode    Mode
	policy  policy.Policy
	blocker policy.BlockNotifier // policy's task_block hook, if any
	central CentralPolicy

	cores   []*coreCtx // worker cores
	special *coreCtx   // dispatcher (Centralized) or utimer core, if any
	idleSet []uint64   // bit i set iff cores[i].idle; written only by setIdle

	mod *kmod.Module
	seg *shm.Segment

	apps   []*App
	nextID int
	rand   *rng.Rand

	// Thread-object recycling: live tracks threads whose body has not
	// exited; utFree chains recycled uthreads (descriptor + closures) and
	// procs recycles the coroutines behind them. A Fig. 7-style
	// run creates millions of threads but only tens live at once, so reuse
	// removes the simulator's largest allocation source.
	live    []*uthread
	utFree  *uthread
	procs   proc.Pool
	idleBuf []bool // reused by idleMask

	// Pooled continuation records for in-flight Exec/timer callbacks that
	// may be superseded (several pending at once, so they cannot live in
	// per-core fields like the tick path's do).
	dispFree *dispCont
	qcFree   *qcCont

	// WakeupHist records wake→run latency for threads with RecordWakeup.
	WakeupHist *stats.Hist

	appCPU      []simtime.Duration // per-app CPU time
	preemptions uint64
	steals      uint64
	faults      uint64

	// Runnable-queue depth bookkeeping (tasks enqueued anywhere — policy
	// runqueues, the central queue, BE side queues — but not yet given a
	// core). Plain integer updates on paths that already mutate queues, so
	// tracking is always on without perturbing behaviour.
	runqDepth     int64
	runqHighWater int64

	// hardening state (harden.go)
	hardenOn    bool
	harden      HardeningConfig
	hardenStats HardeningStats

	// centralized-mode state (central.go)
	dispatchArmed bool
	dispatchFn    func()
	allocState    allocState

	// interrupt-driven networking (netirq.go)
	netNIC *netsim.NIC
	netMSI *uintrsim.MSISource

	tr *trace.Ring
}

// emit records a scheduling event when tracing is enabled.
func (e *Engine) emit(k trace.Kind, cpu int, t *sched.Thread, arg int64) {
	if e.tr == nil {
		return
	}
	ev := trace.Event{At: e.m.Now(), Kind: k, CPU: cpu, Arg: arg}
	if t != nil {
		ev.Task = t.ID
		ev.App = t.App
	}
	e.tr.Record(ev)
}

// uthread is engine-private per-thread state. It embeds the public
// descriptor and everything else a thread life needs (envs, callbacks, the
// backing proc.P of a Start thread), so one recycled object covers what
// used to be six allocations per thread. Recycling reuses &u.t for a later
// thread, which is safe because nothing in the engine holds a *Thread past
// exit: wake targets are always Blocked/Sleeping (and such threads cannot
// exit), and stale in-flight callbacks are guarded by epoch/seq counters,
// not by thread identity.
type uthread struct {
	t       sched.Thread
	sleepEv simtime.Event
	sleepFn func() // timer-wake callback, allocated once per slot
	p       *proc.P
	env     uenv
	body    sched.Func
	runBody func(*proc.Ctx) // proc body trampoline, allocated once per slot
	liveIdx int             // index into Engine.live
	next    *uthread        // Engine.utFree chain

	// Quick-thread state (StartQuick): p == nil, and resumeThread calls
	// quick.Begin with qenv at the first dispatch and quick.End once the
	// demand Begin's Run set has completed.
	quick sched.Quick
	qenv  qenv
}

func ut(t *sched.Thread) *uthread { return t.EngData.(*uthread) }

// dispCont is a pooled dispatch continuation shared by startTask (per-CPU)
// and assign (centralized). The continuation is charged as an Exec on the
// worker and may be superseded while in flight (epoch guard), so several
// can be pending per core at once — each rides its own pooled record
// instead of a fresh closure per dispatch.
type dispCont struct {
	e    *Engine
	c    *coreCtx
	t    *sched.Thread
	ep   uint64
	next *dispCont
	fire func() // bound run method, allocated once per record
}

func (e *Engine) newDispCont(c *coreCtx, t *sched.Thread, ep uint64) *dispCont {
	d := e.dispFree
	if d != nil {
		e.dispFree = d.next
	} else {
		d = &dispCont{e: e}
		d.fire = d.run
	}
	d.c, d.t, d.ep = c, t, ep
	return d
}

func (d *dispCont) run() {
	e, c, t, ep := d.e, d.c, d.t, d.ep
	d.c, d.t = nil, nil
	d.next = e.dispFree
	e.dispFree = d
	if c.epoch != ep {
		return // ownership changed mid-switch (e.g. preempted)
	}
	c.dispatched = true
	e.emit(trace.Dispatch, c.idx, t, 0)
	if t.WakeArmed {
		t.WakeArmed = false
		if t.RecordWakeup {
			e.WakeupHist.Record(e.m.Now() - t.WokenAt)
		}
	}
	e.dispatch(c, t)
}

// qcCont is a pooled quantum-check timer record (centralized mode): one per
// assignment, several may be pending per worker when assignments turn over
// faster than the quantum.
type qcCont struct {
	e    *Engine
	w    *coreCtx
	t    *sched.Thread
	seq  uint64
	next *qcCont
	fire func() // bound run method, allocated once per record
}

func (e *Engine) newQCCont(w *coreCtx, t *sched.Thread, seq uint64) *qcCont {
	q := e.qcFree
	if q != nil {
		e.qcFree = q.next
	} else {
		q = &qcCont{e: e}
		q.fire = q.run
	}
	q.w, q.t, q.seq = w, t, seq
	return q
}

func (q *qcCont) run() {
	e, w, t, seq := q.e, q.w, q.t, q.seq
	q.w, q.t = nil, nil
	q.next = e.qcFree
	e.qcFree = q
	e.quantumCheck(w, t, seq)
}

// coreCtx is one isolated core's scheduler state.
// coreCtx is one simulated CPU's scheduler state — coordinator-owned sim
// state, mutated only inside serially-dispatched callbacks (timer IRQs,
// run completions, wake IPIs) rooted at the engine's entry points.
//
//simlint:owner sim
type coreCtx struct {
	e         *Engine
	idx       int // index into Engine.cores (worker index)
	hwc       *hw.Core
	recv      *uintrsim.Receiver
	send      *uintrsim.Sender
	deleg     *uintrsim.TimerDelegation
	curr      *sched.Thread
	pickCPU   simtime.Duration // curr's CPUTime when startTask picked it
	lastRanID int              // ID of the last task that ran here (0 = none)
	currApp   int
	idle      bool // written only by setIdle

	// epoch increments whenever core ownership (curr) changes; deferred
	// callbacks capture it and bail if ownership moved on, which guards
	// against stale in-flight work (delayed dispatch callbacks, preempt
	// IPIs that crossed an assignment change on the wire).
	epoch      uint64
	dispatched bool // the current task's dispatch callback has run

	// inRuntime marks the current thread as executing runtime code (a
	// spawn or wake continuation); ticks must not preempt it mid-request.
	inRuntime bool

	// centralized-mode worker state
	assignSeq  uint64 // increments per assignment, guards stale preempt checks
	preemptAim uint64 // assignSeq a preemption IPI was aimed at
	beMode     bool   // core currently granted to a best-effort app
	dispUITT   int    // dispatcher's UITT index for this worker (-1 = none yet)

	// lastProgress is the watchdog's silence detector: stamped on every
	// dispatch, IRQ and scheduling-loop pass (plain field write, always on).
	lastProgress simtime.Time

	// extLeased marks the core as lent to an external runtime (LendWorker):
	// the engine neither schedules on it nor watchdogs it, and every legacy
	// IRQ is forwarded to extIRQ until ReclaimWorker takes the core back.
	extLeased bool
	extIRQ    func(hw.IRQ)

	// Reusable continuations for the per-tick hot path. At most one of each
	// is in flight per core (interrupts stay masked until the continuation's
	// UIRet; kick is guarded by the idle flag), so the arguments ride in
	// fields instead of fresh closures every firing.
	tickCont    func()
	tickTask    *sched.Thread
	tickEpoch   uint64
	tickPreempt bool
	tickRanFor  simtime.Duration
	uiretFn     func()
	kickCont    func()
	runCont     func() // StartRun completion (one segment per core)
	runTask     *sched.Thread
}

// setIdle writes the idle flag and its bit in the engine's idle set, so
// the dispatcher finds the lowest idle worker without walking every core.
func (c *coreCtx) setIdle(idle bool) {
	w, bit := c.idx>>6, uint64(1)<<(c.idx&63)
	if idle {
		c.e.idleSet[w] |= bit
	} else {
		c.e.idleSet[w] &^= bit
	}
	c.idle = idle
}

// setCurr changes core ownership, invalidating deferred callbacks from the
// previous owner.
func (c *coreCtx) setCurr(t *sched.Thread) {
	c.curr = t
	c.epoch++
	c.dispatched = false
}

// New builds an engine. Call NewApp then App.Start to add applications,
// then Run to simulate.
func New(cfg Config) *Engine {
	if cfg.Machine == nil || len(cfg.CPUs) == 0 {
		panic("core: need a machine and at least one isolated CPU")
	}
	e := &Engine{
		m:          cfg.Machine,
		cost:       cfg.Machine.Cost,
		ec:         cfg.Costs,
		cfg:        cfg,
		mode:       cfg.Mode,
		policy:     cfg.Policy,
		central:    cfg.Central,
		mod:        kmod.New(cfg.Machine, cfg.Machine.Cost),
		seg:        shm.NewSegment(1 << 16),
		rand:       rng.New(cfg.Seed ^ 0x5EED),
		WakeupHist: stats.NewHist(),
		tr:         cfg.Trace,
	}
	e.blocker, _ = cfg.Policy.(policy.BlockNotifier)

	workerCPUs := cfg.CPUs
	needSpecial := cfg.Mode == Centralized || cfg.TimerMode == TimerUtimer
	if needSpecial {
		if len(cfg.CPUs) < 2 {
			panic("core: dispatcher/utimer mode needs at least two CPUs")
		}
		workerCPUs = cfg.CPUs[1:]
		sc := cfg.Machine.Cores[cfg.CPUs[0]]
		e.special = &coreCtx{e: e, idx: -1, hwc: sc}
		e.special.recv = uintrsim.NewReceiver(sc, e.cost)
		e.special.send = uintrsim.NewSender(sc, e.cost)
		e.special.recv.Register(UINV, func(vec uint8, ranFor simtime.Duration) {
			e.special.recv.UIRet() // dispatcher ignores stray user interrupts
		})
	}

	e.idleSet = make([]uint64, (len(workerCPUs)+63)/64)
	for i, id := range workerCPUs {
		c := &coreCtx{e: e, idx: i, hwc: cfg.Machine.Cores[id], currApp: -1, dispUITT: -1}
		c.setIdle(true)
		c.recv = uintrsim.NewReceiver(c.hwc, e.cost)
		c.send = uintrsim.NewSender(c.hwc, e.cost)
		cc := c
		c.recv.Register(UINV, func(vec uint8, ranFor simtime.Duration) {
			e.onUserIRQ(cc, vec, ranFor)
		})
		c.recv.SetLegacyHandler(func(irq hw.IRQ) { e.onLegacyIRQ(cc, irq) })
		c.tickCont = func() { e.tickResume(cc) }
		c.runCont = func() {
			t := cc.runTask
			cc.runTask = nil
			if e.cfg.TimerMode == TimerDeadline {
				cc.deleg.Disarm()
			}
			e.account(t, t.Remaining)
			e.resumeThread(cc, t, nil)
		}
		c.uiretFn = func() { cc.recv.UIRet() }
		c.kickCont = func() {
			if cc.curr != nil {
				return // another path already gave the core work
			}
			cc.setIdle(true) // scheduleNext clears if it finds work
			e.scheduleNext(cc)
		}
		e.cores = append(e.cores, c)
	}

	if e.mode == PerCPU {
		if e.policy == nil {
			panic("core: PerCPU mode requires a Policy")
		}
		e.policy.SchedInit(len(e.cores))
	} else {
		if e.central == nil {
			panic("core: Centralized mode requires a CentralPolicy")
		}
		e.dispatchFn = func() {
			e.dispatchArmed = false
			e.dispatchLoop()
		}
	}

	switch cfg.TimerMode {
	case TimerLAPIC:
		if cfg.TimerHz > 0 {
			for _, c := range e.cores {
				d, ioctl := e.mod.TimerEnable(c.recv, c.send, cfg.TimerHz)
				c.deleg = d
				c.hwc.Exec(ioctl, nil)
			}
		}
	case TimerUtimer:
		if cfg.UtimerQuantum <= 0 {
			panic("core: TimerUtimer requires UtimerQuantum")
		}
		e.startUtimer()
	case TimerDeadline:
		if cfg.DeadlineQuantum <= 0 {
			panic("core: TimerDeadline requires DeadlineQuantum")
		}
		for _, c := range e.cores {
			c.deleg = uintrsim.DelegateTimerDeadline(c.recv, c.send)
		}
	}
	if e.mode == Centralized && cfg.CoreAlloc != nil {
		e.startCoreAllocator()
	}
	if cfg.Hardening != nil {
		e.hardenOn = true
		e.harden = cfg.Hardening.withDefaults()
		e.startWatchdog()
	}
	return e
}

// Machine reports the underlying machine.
func (e *Engine) Machine() *hw.Machine { return e.m }

// KernelModule reports the simulated kernel module (for inspection).
func (e *Engine) KernelModule() *kmod.Module { return e.mod }

// Preemptions reports the number of involuntary task preemptions.
func (e *Engine) Preemptions() uint64 { return e.preemptions }

// Steals reports successful work-stealing migrations.
func (e *Engine) Steals() uint64 { return e.steals }

// Faults reports passive blocking events (page faults) that stalled cores.
func (e *Engine) Faults() uint64 { return e.faults }

// AppCPU reports total CPU time consumed by app id's threads.
func (e *Engine) AppCPU(id int) simtime.Duration {
	if id < 0 || id >= len(e.appCPU) {
		return 0
	}
	return e.appCPU[id]
}

// Workers reports the number of worker cores.
func (e *Engine) Workers() int { return len(e.cores) }

// UINTRDeliveredAt reports the most recent delivery-substrate instant seen
// by worker cpu (the index trace events carry): the UINTR receiver's last
// user-interrupt delivery or, if newer, the core's last hardware IRQ entry
// (the LAPIC path). Zero before any delivery. Read-only — the causal tracer
// annotates dispatch hops with it without perturbing the engine.
func (e *Engine) UINTRDeliveredAt(cpu int) simtime.Time {
	if cpu < 0 || cpu >= len(e.cores) {
		return 0
	}
	c := e.cores[cpu]
	at := c.hwc.LastIRQAt()
	if d := c.recv.LastDeliveredAt(); d > at {
		at = d
	}
	return at
}

// NewApp registers an application. The first app binds active kernel
// threads on every isolated core (the daemon path); later apps park theirs
// (§4.1), in line with the Single Binding Rule.
func (e *Engine) NewApp(name string) *App {
	a := &App{ID: len(e.apps), Name: name, e: e, meta: e.seg.RegisterApp(name)}
	for _, c := range e.cores {
		var kt *kmod.KThread
		var err error
		if a.ID == 0 {
			kt, err = e.mod.CreateBound(a.ID, c.hwc.ID)
			c.currApp = 0
		} else {
			kt, err = e.mod.ParkOnCPU(a.ID, c.hwc.ID)
		}
		if err != nil {
			panic(err.Error())
		}
		a.meta.KThreadTIDs[c.hwc.ID] = kt.TID
	}
	e.apps = append(e.apps, a)
	e.appCPU = append(e.appCPU, 0)
	return a
}

// Start creates a root thread for the app and submits it.
func (a *App) Start(name string, body sched.Func) *sched.Thread {
	t := a.e.newThread(a, name, body)
	t.State = sched.Runnable
	a.e.submit(t, policy.EnqNew)
	return t
}

// StartQuick creates a quick thread running q (sched.Quick), the
// thread-per-request pattern of the Fig. 7 and 8 experiments. It is
// scheduled, dispatched, preempted and accounted exactly like a Start
// thread whose body is "q.Begin(env), then q.End(env.Now())", with the same
// events at the same instants, but no coroutine backs it: Begin runs inside
// the first dispatch and its Run only sets the thread's demand.
func (a *App) StartQuick(name string, q sched.Quick) *sched.Thread {
	e := a.e
	u := e.getUthread(name, a.ID)
	u.quick = q
	t := &u.t
	if e.mode == PerCPU {
		e.policy.TaskInit(t)
	}
	u.liveIdx = len(e.live)
	e.live = append(e.live, u)
	a.live++
	t.State = sched.Runnable
	e.submit(t, policy.EnqNew)
	return t
}

// Engine reports the owning engine (so workload helpers can reach stats).
func (a *App) Engine() *Engine { return a.e }

// KThreadTID reports the app's kernel thread on hw core id (bound for app
// 0, parked otherwise) — the handle a cross-runtime lease broker passes to
// LendWorker to switch a lent core to the borrower.
func (a *App) KThreadTID(core int) int { return a.meta.KThreadTIDs[core] }

// getUthread pops a recycled uthread from the freelist (or builds a fresh
// one with its once-per-slot closures) and resets the embedded descriptor
// for a new life as thread name in app.
func (e *Engine) getUthread(name string, app int) *uthread {
	u := e.utFree
	if u != nil {
		e.utFree = u.next
		u.next = nil
	} else {
		u = &uthread{}
		u.t.EngData = u
		u.env.e = e
		u.env.t = &u.t
		u.qenv.e = e
		u.qenv.t = &u.t
		u.sleepFn = func() {
			u.sleepEv = simtime.Event{}
			e.wake(nil, &u.t)
		}
		u.runBody = func(c *proc.Ctx) {
			u.env.ctx = c
			u.body(&u.env)
		}
	}
	e.nextID++
	t := &u.t
	t.ID = e.nextID
	t.Name = name
	t.App = app
	t.State = sched.Created
	t.WakePending = false
	t.CPUTime = 0
	t.EnqueuedAt = 0
	t.WokenAt = 0
	t.LastCPU = -1
	t.RecordWakeup = false
	t.WakeArmed = false
	t.Remaining = 0
	// PolData is kept: the policy's TaskInit resets it in place.
	u.sleepEv = simtime.Event{}
	// A descriptor that last served a Start thread still holds that
	// thread's coroutine handle, which may by now serve another thread;
	// runBody sets a fresh one.
	u.env.ctx = nil
	u.qenv.state = qNew
	return u
}

func (e *Engine) newThread(a *App, name string, body sched.Func) *sched.Thread {
	u := e.getUthread(name, a.ID)
	t := &u.t
	u.body = body
	if e.mode == PerCPU {
		e.policy.TaskInit(t)
	}
	u.p = e.procs.Get(name, u.runBody)
	u.liveIdx = len(e.live)
	e.live = append(e.live, u)
	a.live++
	return t
}

// Run drives the simulation to the horizon.
func (e *Engine) Run(horizon simtime.Time) { e.m.Clock.Run(horizon) }

// RunUntil drives until pred holds or the horizon passes.
func (e *Engine) RunUntil(horizon simtime.Time, pred func() bool) bool {
	return e.m.Clock.RunUntil(horizon, pred)
}

// Shutdown stops timers and reaps every thread coroutine, including the
// parked ones in the reuse pool.
func (e *Engine) Shutdown() {
	for _, u := range e.live {
		// Under strict handoff every live thread is parked in a request at
		// this point, so killing is always safe. Quick threads have no
		// coroutine behind them and need no reaping.
		if u.p != nil {
			u.p.Kill()
			u.p.Stop()
			u.p = nil
		}
	}
	e.live = nil
	e.procs.Drain()
	for _, c := range e.cores {
		if c.deleg != nil {
			c.deleg.Stop()
		}
		c.hwc.Timer.Stop()
	}
	if e.special != nil {
		e.special.hwc.Timer.Stop()
	}
}

// ---- scheduling core (per-CPU model) ----

// qUp/qDown maintain the runnable-queue depth and its high-water mark:
// qUp at every enqueue site, qDown when a dequeued task takes a core
// (startTask / assign — the only two exits from any queue).
func (e *Engine) qUp() {
	e.runqDepth++
	if e.runqDepth > e.runqHighWater {
		e.runqHighWater = e.runqDepth
	}
}

func (e *Engine) qDown() {
	if e.runqDepth > 0 {
		e.runqDepth--
	}
}

// submit makes a runnable task visible to the scheduler.
func (e *Engine) submit(t *sched.Thread, flags policy.EnqueueFlags) {
	if e.mode == Centralized {
		e.centralSubmit(t, flags)
		return
	}
	t.EnqueuedAt = e.m.Now()
	cpu := e.policy.PickCPU(t, e.idleMask())
	e.policy.TaskEnqueue(cpu, t, flags)
	e.qUp()
	c := e.cores[cpu]
	if c.idle {
		e.kick(c)
		return
	}
	// The home core is busy: an idle core can steal via sched_balance.
	if o := e.idleWorker(); o != nil {
		e.kick(o)
	}
}

func (e *Engine) idleMask() []bool {
	m := e.idleBuf
	if m == nil {
		m = make([]bool, len(e.cores))
		e.idleBuf = m
	}
	for i, c := range e.cores {
		m[i] = c.idle
	}
	return m
}

// kick restarts an idle core's main scheduling loop.
func (e *Engine) kick(c *coreCtx) {
	if !c.idle {
		return
	}
	c.setIdle(false)
	c.hwc.Exec(e.ec.Pick+e.ec.UnparkCost, c.kickCont)
}

// scheduleNext runs the main scheduling loop once on core c.
func (e *Engine) scheduleNext(c *coreCtx) {
	c.markProgress(e.m.Now())
	if e.mode == Centralized {
		e.workerBecameIdle(c)
		return
	}
	t := e.policy.TaskDequeue(c.idx)
	if t == nil {
		if t = e.policy.SchedBalance(c.idx); t != nil {
			e.steals++
			e.emit(trace.Steal, c.idx, t, 0)
		}
	}
	if t == nil {
		if e.cfg.TimerMode == TimerDeadline && c.deleg != nil {
			c.deleg.Disarm()
		}
		c.setCurr(nil)
		c.setIdle(true)
		return
	}
	e.startTask(c, t)
}

// startTask switches core c to task t, charging pick, context-switch, and —
// when t belongs to a different application — the kernel-module switch
// (Figure 4's B→C path).
func (e *Engine) startTask(c *coreCtx, t *sched.Thread) {
	e.qDown()
	c.setIdle(false)
	c.setCurr(t)
	ep := c.epoch
	t.State = sched.Running
	t.LastCPU = c.idx
	c.pickCPU = t.CPUTime
	cost := e.ec.Pick
	if c.lastRanID != t.ID {
		cost += e.ec.Switch
	}
	c.lastRanID = t.ID
	if t.App != c.currApp {
		cost += e.appSwitch(c, t.App)
	}
	c.hwc.Exec(cost, e.newDispCont(c, t, ep).fire)
}

// appSwitch performs the kernel-thread swap for cross-application switches
// and returns its cost.
func (e *Engine) appSwitch(c *coreCtx, app int) simtime.Duration {
	meta := e.seg.App(app)
	if meta == nil {
		panic(fmt.Sprintf("core: switch to unregistered app %d", app))
	}
	tid := meta.KThreadTIDs[c.hwc.ID]
	d, err := e.mod.SwitchTo(tid)
	if err != nil {
		panic("core: " + err.Error())
	}
	c.currApp = app
	e.emit(trace.AppSwitch, c.idx, nil, int64(app))
	return d
}

// dispatch resumes t's pending activity on c.
func (e *Engine) dispatch(c *coreCtx, t *sched.Thread) {
	c.markProgress(e.m.Now())
	if t.Remaining > 0 {
		if e.cfg.TimerMode == TimerDeadline {
			// Program the next preemption deadline from user space — a
			// single register write, no kernel round trip.
			c.hwc.Exec(e.ec.TimerArm, nil)
			c.deleg.ArmDeadline(e.cfg.DeadlineQuantum)
		}
		c.runTask = t
		c.hwc.StartRun(t.Remaining, c.runCont)
		return
	}
	e.resumeThread(c, t, nil)
}

// account charges executed CPU time to the task and its application.
func (e *Engine) account(t *sched.Thread, ran simtime.Duration) {
	if ran <= 0 {
		return
	}
	t.CPUTime += ran
	t.Remaining -= ran
	if t.Remaining < 0 {
		t.Remaining = 0
	}
	if t.App >= 0 && t.App < len(e.appCPU) {
		e.appCPU[t.App] += ran
	}
}

// wake transitions a blocked or sleeping thread to runnable.
func (e *Engine) wake(from *coreCtx, t *sched.Thread) {
	switch t.State {
	case sched.Blocked, sched.Sleeping:
	case sched.Exited:
		return
	default:
		t.WakePending = true
		return
	}
	u := ut(t)
	if !u.sleepEv.IsZero() {
		e.m.Clock.Cancel(u.sleepEv)
		u.sleepEv = simtime.Event{}
	}
	_ = from // wake-path cost is charged by the WakeReq continuation
	t.State = sched.Runnable
	t.WokenAt = e.m.Now()
	t.WakeArmed = true
	e.emit(trace.Wake, -1, t, 0)
	e.submit(t, policy.EnqWakeup)
}

// ---- interrupt handling ----

// onUserIRQ is the global user-interrupt handler (Listing 1): vector 62 is
// a delegated timer tick, vector 61 a dispatcher preemption.
func (e *Engine) onUserIRQ(c *coreCtx, vec uint8, ranFor simtime.Duration) {
	c.markProgress(e.m.Now())
	switch vec {
	case uintrsim.TimerUserVector:
		e.onTick(c, ranFor)
	case PreemptUserVector:
		e.onPreemptIRQ(c, ranFor)
	case NetUserVector:
		e.onNetIRQ(c, ranFor)
	default:
		c.recv.UIRet()
	}
}

// absorbSlippedRun stops a run segment that began while an interrupt
// handler's entry cost was being charged (the hardware recognised the
// interrupt just as the scheduler was switching to a new task). It returns
// the segment's progress; the caller accounts it together with the
// receiver-reported progress.
func (e *Engine) absorbSlippedRun(c *coreCtx) simtime.Duration {
	if !c.hwc.Running() {
		return 0
	}
	return c.hwc.StopRun()
}

// onTick services a user timer interrupt on a per-CPU core.
func (e *Engine) onTick(c *coreCtx, ranFor simtime.Duration) {
	ranFor += e.absorbSlippedRun(c)
	var rearm simtime.Duration
	if c.deleg != nil {
		rearm = c.deleg.Rearm() // senduipi(SN=1): reset PIR for next timer
	}
	if e.mode == Centralized {
		// Centralized workers are preempted by the dispatcher, not local
		// ticks.
		c.hwc.Exec(rearm, c.uiretFn)
		return
	}
	t := c.curr
	if t != nil {
		e.account(t, ranFor)
	}
	c.tickTask = t
	c.tickEpoch = c.epoch
	c.tickPreempt = t != nil && !c.inRuntime && e.policy.SchedTimerTick(c.idx, t, t.CPUTime-c.pickCPU)
	c.tickRanFor = ranFor
	c.hwc.Exec(rearm, c.tickCont)
}

// tickResume is the deferred half of onTick, run once the handler's rearm
// cost has been charged. Its arguments travel in coreCtx tick* fields: the
// receiver keeps interrupts masked until the UIRet below, so exactly one
// instance is in flight per core.
func (e *Engine) tickResume(c *coreCtx) {
	t, ep, preempt, ranFor := c.tickTask, c.tickEpoch, c.tickPreempt, c.tickRanFor
	c.tickTask = nil
	c.recv.UIRet()
	if t != nil && c.epoch != ep {
		return // ownership changed while the handler was charged
	}
	switch {
	case preempt:
		e.preemptions++
		if c.dispatched {
			e.emit(trace.Preempt, c.idx, t, int64(ranFor))
		}
		t.State = sched.Runnable
		e.policy.TaskEnqueue(c.idx, t, policy.EnqPreempted)
		e.qUp()
		c.setCurr(nil)
		e.scheduleNext(c)
	case t != nil:
		if c.dispatched && !c.inRuntime && !c.hwc.Running() {
			e.dispatch(c, t)
		}
		// Otherwise an in-flight dispatch callback or runtime-op
		// continuation already resumed it (or will).
	default:
		// Idle tick: opportunistically rerun the main loop; a core
		// mid-transition (curr==nil, not idle) is left to its owner.
		if c.idle {
			e.scheduleNext(c)
		}
	}
}

// onLegacyIRQ handles non-UINTR preemption vectors (kernel IPI / signal
// mechanisms used by baseline profiles).
func (e *Engine) onLegacyIRQ(c *coreCtx, irq hw.IRQ) {
	if c.extLeased && c.extIRQ != nil {
		// The core is lent to an external runtime: every legacy vector is
		// its traffic (timer ticks, resched and vacate IPIs). The delegate
		// owns EndIRQ.
		c.extIRQ(irq)
		return
	}
	c.markProgress(e.m.Now())
	if irq.Vector != legacyPreemptVector {
		c.hwc.EndIRQ()
		return
	}
	var ranFor simtime.Duration
	if c.hwc.Running() {
		ranFor = c.hwc.StopRun()
	}
	mech := e.ec.Preempt
	c.hwc.Exec(mech.Receive+mech.ExtraSwitch, func() {
		ranFor += e.absorbSlippedRun(c)
		c.hwc.EndIRQ()
		e.preemptWorker(c, ranFor, irq.Data)
	})
}

// startUtimer runs the dedicated software-timer core (§5.3): every quantum
// it sends a user IPI to each worker core.
func (e *Engine) startUtimer() {
	s := e.special
	idxOf := make([]int, len(e.cores))
	for i, c := range e.cores {
		idxOf[i] = s.send.Connect(c.recv.UPID(), uintrsim.TimerUserVector)
	}
	var fire func()
	fire = func() {
		for i := range e.cores {
			s.hwc.Exec(s.send.SendCost(idxOf[i]), nil)
			s.send.SendUIPI(idxOf[i])
		}
		e.m.Clock.After(e.cfg.UtimerQuantum, fire)
	}
	e.m.Clock.After(e.cfg.UtimerQuantum, fire)
}

// ---- thread request processing ----

func (e *Engine) resumeThread(c *coreCtx, t *sched.Thread, resp any) {
	u := ut(t)
	if u.p == nil {
		// Quick thread (StartQuick): Begin at the first dispatch sets the
		// demand, End once it has run, then exit; no coroutine to resume.
		if u.qenv.state == qNew {
			u.qenv.state = qOpen
			u.quick.Begin(&u.qenv)
			u.qenv.state = qDone
			if t.Remaining > 0 {
				e.dispatch(c, t)
				return
			}
		}
		u.quick.End(e.m.Now())
		e.finishThread(c, t)
		return
	}
	p := u.p
	for {
		req := p.Resume(resp)
		resp = nil
		switch r := req.(type) {
		case *sched.RunReq:
			t.Remaining = r.D
			e.dispatch(c, t)
			return
		case *sched.YieldReq:
			c.hwc.Exec(e.ec.Yield, nil)
			e.emit(trace.Yield, c.idx, t, 0)
			t.State = sched.Runnable
			c.setCurr(nil)
			if e.mode == Centralized {
				e.centralSubmit(t, policy.EnqYield)
			} else {
				e.policy.TaskEnqueue(c.idx, t, policy.EnqYield)
				e.qUp()
			}
			e.scheduleNext(c)
			return
		case *sched.BlockReq:
			if t.WakePending {
				t.WakePending = false
				continue
			}
			t.State = sched.Blocked
			e.emit(trace.Block, c.idx, t, 0)
			e.taskBlock(c, t)
			c.setCurr(nil)
			e.scheduleNext(c)
			return
		case *sched.SleepReq:
			e.emit(trace.Sleep, c.idx, t, int64(r.D))
			t.State = sched.Sleeping
			e.taskBlock(c, t)
			u := ut(t)
			u.sleepEv = e.m.Clock.After(r.D, u.sleepFn)
			c.setCurr(nil)
			e.scheduleNext(c)
			return
		case *sched.IOReq:
			// Asynchronous I/O (§6 mitigation): submit from user space,
			// park the thread, and keep the core schedulable.
			c.hwc.Exec(e.cost.Syscall/2, nil)
			e.emit(trace.Sleep, c.idx, t, int64(r.D))
			t.State = sched.Sleeping
			e.taskBlock(c, t)
			u := ut(t)
			u.sleepEv = e.m.Clock.After(r.D, u.sleepFn)
			c.setCurr(nil)
			e.scheduleNext(c)
			return
		case *sched.FaultReq:
			e.emit(trace.Fault, c.idx, t, int64(r.D))
			// Passive blocking (§6 hazard): the active kernel thread
			// stalls inside the kernel, so the whole isolated core is
			// unavailable until the fault resolves — no other
			// application's kernel thread may run here (Single Binding
			// Rule), and the user scheduler cannot intervene.
			e.faults++
			c.inRuntime = true
			c.hwc.Exec(r.D, func() {
				c.inRuntime = false
				e.resumeThread(c, t, nil)
			})
			return
		case *sched.SpawnReq:
			child := e.newThread(e.apps[t.App], r.Name, r.Body)
			child.State = sched.Runnable
			if e.ec.Spawn > 0 {
				// Thread creation occupies the caller for the spawn cost
				// (runtime code: not preemptible by the user scheduler).
				c.inRuntime = true
				c.hwc.Exec(e.ec.Spawn, func() {
					c.inRuntime = false
					e.submit(child, policy.EnqNew)
					e.resumeThread(c, t, child)
				})
				return
			}
			e.submit(child, policy.EnqNew)
			resp = child
		case *sched.WakeReq:
			target := r.T
			if e.ec.WakePath > 0 {
				c.inRuntime = true
				c.hwc.Exec(e.ec.WakePath, func() {
					c.inRuntime = false
					e.wake(nil, target)
					e.resumeThread(c, t, nil)
				})
				return
			}
			e.wake(nil, target)
		case proc.ExitRequest:
			e.finishThread(c, t)
			return
		default:
			panic(fmt.Sprintf("core: unknown request %T", req))
		}
	}
}

// taskBlock runs the policy's task_block hook as c's running task t leaves
// the runnable set: it blocks, sleeps or waits for I/O.
func (e *Engine) taskBlock(c *coreCtx, t *sched.Thread) {
	if e.blocker != nil && c.idx >= 0 {
		e.blocker.TaskBlock(c.idx, t)
	}
}

// finishThread handles thread exit and application termination (§3.3).
func (e *Engine) finishThread(c *coreCtx, t *sched.Thread) {
	e.emit(trace.Exit, c.idx, t, 0)
	t.State = sched.Exited
	if e.mode == PerCPU {
		e.policy.TaskTerminate(t)
	}
	a := e.apps[t.App]
	a.live--
	if a.live == 0 {
		a.meta.Exited = true
	}
	// Recycle the thread's objects: the coroutine parks for reuse and the
	// uthread (descriptor included) goes on the freelist. Swap-remove from
	// the live list keeps exit O(1).
	u := ut(t)
	if u.p != nil {
		e.procs.Put(u.p)
		u.p = nil
	}
	u.body = nil
	u.quick = nil
	last := len(e.live) - 1
	e.live[u.liveIdx] = e.live[last]
	e.live[u.liveIdx].liveIdx = u.liveIdx
	e.live[last] = nil
	e.live = e.live[:last]
	u.next = e.utFree
	e.utFree = u
	c.setCurr(nil)
	e.scheduleNext(c)
}

// ---- Env implementation ----

// uenv is a thread's Env. It owns one request slot per request type: Ask
// passes a pointer to the slot, so issuing a request never boxes a value
// into an interface (no allocation per Run, Sleep or Spawn). A thread has
// at most one request outstanding and the engine reads the slot before it
// resumes the thread, so one slot per type is enough.
type uenv struct {
	e   *Engine
	t   *sched.Thread
	ctx *proc.Ctx

	run   sched.RunReq
	yield sched.YieldReq
	block sched.BlockReq
	sleep sched.SleepReq
	io    sched.IOReq
	fault sched.FaultReq
	spawn sched.SpawnReq
	wake  sched.WakeReq
}

func (v *uenv) Now() simtime.Time   { return v.e.m.Now() }
func (v *uenv) Self() *sched.Thread { return v.t }
func (v *uenv) Rand() *rng.Rand     { return v.e.rand }

func (v *uenv) Run(d simtime.Duration) {
	if d <= 0 {
		return
	}
	v.run.D = d
	v.ctx.Ask(&v.run)
}

func (v *uenv) Yield() { v.ctx.Ask(&v.yield) }
func (v *uenv) Block() { v.ctx.Ask(&v.block) }

func (v *uenv) Sleep(d simtime.Duration) {
	v.sleep.D = d
	v.ctx.Ask(&v.sleep)
}

func (v *uenv) IO(d simtime.Duration) {
	v.io.D = d
	v.ctx.Ask(&v.io)
}

func (v *uenv) Fault(d simtime.Duration) {
	v.fault.D = d
	v.ctx.Ask(&v.fault)
}

func (v *uenv) Wake(t *sched.Thread) {
	v.wake.T = t
	v.ctx.Ask(&v.wake)
}

func (v *uenv) Spawn(name string, body sched.Func) *sched.Thread {
	v.spawn = sched.SpawnReq{Name: name, Body: body}
	r := v.ctx.Ask(&v.spawn)
	v.spawn = sched.SpawnReq{} // the pooled env must not keep body alive
	return r.(*sched.Thread)
}

func (v *uenv) OpCost(op sched.Op) simtime.Duration { return v.e.opCost(op) }

func (e *Engine) opCost(op sched.Op) simtime.Duration {
	switch op {
	case sched.OpYield:
		return e.ec.Yield
	case sched.OpSpawn:
		return e.ec.Spawn
	case sched.OpMutex:
		return e.ec.Mutex
	case sched.OpCondvar:
		return e.ec.Condvar
	}
	return 0
}

// qenv is a quick thread's Env, valid only inside Begin. Begin runs within
// the dispatch that starts the thread, so Run cannot suspend it: Run
// records the demand, which the engine runs once Begin returns. A call
// that needs a suspension, a second Run, or any call after the Run or
// after Begin has returned would run at the wrong instant, so each panics
// with the rule it breaks. Coroutine threads use uenv and pay for none of
// these checks.
type qenv struct {
	e     *Engine
	t     *sched.Thread
	state qstate
}

// qstate is a quick thread's progress through its body.
type qstate uint8

const (
	qNew  qstate = iota // Begin not called yet
	qOpen               // inside Begin, before its Run
	qRan                // inside Begin, after its Run
	qDone               // Begin has returned
)

// check panics unless the body is inside Begin and before its Run.
func (v *qenv) check(call string) {
	if v.state != qOpen {
		v.misuse(call)
	}
}

// misuse panics with the quick-body rule that call breaks.
func (v *qenv) misuse(call string) {
	var rule string
	switch {
	case v.state == qDone:
		call, rule = call+" after Begin returned", "a quick body's Env is valid only inside Begin"
	case v.state == qRan && call == "Run":
		call, rule = "Run twice", "a quick body issues at most one Run"
	case v.state == qRan:
		call, rule = call+" after its Run", "a quick body's Run must be its last Env call"
	default:
		rule = "a quick body may issue no request but one Run (a handler that suspends needs App.Start)"
	}
	panic(fmt.Sprintf("core: quick thread %s#%d called %s: %s", v.t.Name, v.t.ID, call, rule))
}

func (v *qenv) Now() simtime.Time   { v.check("Now"); return v.e.m.Now() }
func (v *qenv) Self() *sched.Thread { v.check("Self"); return v.t }
func (v *qenv) Rand() *rng.Rand     { v.check("Rand"); return v.e.rand }

func (v *qenv) OpCost(op sched.Op) simtime.Duration {
	v.check("OpCost")
	return v.e.opCost(op)
}

// Run sets the thread's demand; Run(d <= 0) is a no-op, as on uenv.
func (v *qenv) Run(d simtime.Duration) {
	v.check("Run")
	if d > 0 {
		v.t.Remaining = d
		v.state = qRan
	}
}

func (v *qenv) Yield()                                 { v.misuse("Yield") }
func (v *qenv) Block()                                 { v.misuse("Block") }
func (v *qenv) Sleep(simtime.Duration)                 { v.misuse("Sleep") }
func (v *qenv) IO(simtime.Duration)                    { v.misuse("IO") }
func (v *qenv) Fault(simtime.Duration)                 { v.misuse("Fault") }
func (v *qenv) Wake(*sched.Thread)                     { v.misuse("Wake") }
func (v *qenv) Spawn(string, sched.Func) *sched.Thread { v.misuse("Spawn"); return nil }
