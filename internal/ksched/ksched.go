// Package ksched simulates the Linux kernel's scheduling subsystem: kernel
// threads, per-CPU runqueues with the CFS / SCHED_RR / SCHED_FIFO / EEVDF
// classes, a CONFIG_HZ-bounded periodic tick, reschedule IPIs, and signal
// delivery. It is the substrate for every Linux baseline in the paper's
// evaluation (Fig. 5/6 Linux curves, the Linux CFS line in Fig. 7a) and for
// the kernel-side costs that ghOSt pays.
//
// The crucial fidelity point for Fig. 5 is that preemption decisions are
// only taken at timer ticks (plus explicit wakeup-preemption checks), and
// the tick frequency is capped at CONFIG_HZ ≤ 1000 — which is exactly why
// Linux wakeup latencies sit at milliseconds while Skyloft's user-space
// 100 kHz timer reaches tens of microseconds.
package ksched

import (
	"fmt"

	"skyloft/internal/cycles"
	"skyloft/internal/hw"
	"skyloft/internal/obs"
	"skyloft/internal/proc"
	"skyloft/internal/rng"
	"skyloft/internal/sched"
	"skyloft/internal/simtime"
	"skyloft/internal/stats"
)

// Class selects a thread's scheduling class.
type Class int8

const (
	ClassCFS Class = iota
	ClassRR
	ClassFIFO
	ClassEEVDF
	ClassBatch // SCHED_BATCH: CFS without wakeup preemption
)

func (c Class) String() string {
	switch c {
	case ClassCFS:
		return "CFS"
	case ClassRR:
		return "RR"
	case ClassFIFO:
		return "FIFO"
	case ClassEEVDF:
		return "EEVDF"
	case ClassBatch:
		return "BATCH"
	}
	return fmt.Sprintf("class(%d)", int8(c))
}

// Params are the tunables of paper Table 5.
type Params struct {
	HZ                int64            // CONFIG_HZ: periodic tick frequency
	MinGranularity    simtime.Duration // CFS sched_min_granularity
	SchedLatency      simtime.Duration // CFS sched_latency
	WakeupGranularity simtime.Duration // CFS sched_wakeup_granularity
	RRTimeslice       simtime.Duration // SCHED_RR quantum
	BaseSlice         simtime.Duration // EEVDF base_slice
}

// DefaultParams is a stock distro kernel (Linux CFS default row of Table 5).
func DefaultParams() Params {
	return Params{
		HZ:                250,
		MinGranularity:    3 * simtime.Millisecond,
		SchedLatency:      24 * simtime.Millisecond,
		WakeupGranularity: 1 * simtime.Millisecond,
		RRTimeslice:       100 * simtime.Millisecond,
		BaseSlice:         3 * simtime.Millisecond,
	}
}

// TunedParams is the latency-tuned configuration of Table 5 (HZ=1000,
// 12.5 µs granularity, 50 µs latency) — the best Linux can be configured to.
func TunedParams() Params {
	p := DefaultParams()
	p.HZ = 1000
	p.MinGranularity = 12500 * simtime.Nanosecond // 12.5 µs
	p.SchedLatency = 50 * simtime.Microsecond
	p.BaseSlice = 12500 * simtime.Nanosecond
	return p
}

const (
	tickVector    uint8 = 0x20
	reschedVector uint8 = 0xFD
	signalVector  uint8 = 0xFE
)

// VacateVector asks a lent CPU to go offline: re-home its runnable threads
// to the kernel's remaining CPUs and hand the core back to the lender (the
// cooperative half of the cross-runtime lease protocol). It rides the same
// IPI fabric as everything else, so a fault plan may drop it — the lease
// broker escalates to ForceOffline when that happens.
const VacateVector uint8 = 0xFC

// Config assembles a kernel instance.
type Config struct {
	Machine *hw.Machine
	CPUs    []int // core IDs this kernel schedules on (the taskset)
	Params  Params
	Class   Class // default class for spawned threads
	Seed    uint64
	// LentCPUs are additional core IDs the kernel may be lent at runtime
	// (the cross-runtime lease protocol). They start offline — no IRQ
	// handler claimed, no tick started; the lender owns the core and
	// forwards its IRQs via ForwardIRQ while a lease is active — and join
	// the scheduling set only between Online and the next vacate.
	LentCPUs []int
	// IdleSteal enables newidle balancing: a CPU that finds its own queues
	// empty pulls one thread from the busiest online CPU. Off by default so
	// the Linux baseline curves keep their stock placement behaviour;
	// multi-runtime lease scenarios enable it so lent cores drain queued
	// work immediately.
	IdleSteal bool
}

// Kernel is the simulated scheduling subsystem.
type Kernel struct {
	m      *hw.Machine
	cost   cycles.Model
	params Params
	class  Class
	cpus   []*cpu
	rand   *rng.Rand

	threads  []*sched.Thread
	nextID   int
	liveProc map[*sched.Thread]*proc.P
	procs    proc.Pool // recycled coroutines behind threads

	// WakeupHist collects wake→run latencies for threads with
	// RecordWakeup set (schbench's metric).
	WakeupHist *stats.Hist

	ctxSwitches uint64
	reschedIPIs uint64

	// cross-runtime lending state (lent.go)
	idleSteal  bool
	hasLent    bool
	vacates    uint64 // lent CPUs handed back (cooperative or forced)
	onlines    uint64 // lent CPUs brought into the scheduling set
	vacateHook func(kidx int)

	// Runnable-queue depth across all CPUs (rt + fair sets) and its
	// high-water mark, maintained by enqueue/pickNext.
	runqDepth     int64
	runqHighWater int64
}

// kthread is the kernel-side descriptor attached to sched.Thread.EngData.
type kthread struct {
	t     *sched.Thread
	class Class

	// fair-class state (CFS/EEVDF/Batch)
	vruntime float64 // ns, weight-normalised
	lag      float64 // EEVDF: lag preserved across sleeps
	deadline float64 // EEVDF: virtual deadline

	// pending signals delivered when next scheduled (or immediately if
	// running).
	pendingSignals []func()

	sleepEv simtime.Event
	sleepFn func() // timer-wake callback, allocated once per thread
}

func kt(t *sched.Thread) *kthread { return t.EngData.(*kthread) }

// cpu is one per-core runqueue + dispatch state.
type cpu struct {
	k        *Kernel
	idx      int // index into k.cpus
	hwc      *hw.Core
	curr     *sched.Thread
	pickedAt simtime.Time // when curr was given the CPU (slice start)
	idle     bool

	rt   []*sched.Thread // RR/FIFO queue (single priority level)
	fair []*sched.Thread // CFS/EEVDF/Batch runnable set

	// offline marks a CPU outside the scheduling set: lent cores before
	// Online and after a vacate. offlinePending defers a vacate IPI's
	// offlining until the interrupt unwinds (afterIRQ).
	offline        bool
	offlinePending bool

	minVruntime float64
	needResched bool
	reschedSent bool
	lastRan     *sched.Thread // for context-switch cost accounting

	// epoch increments whenever CPU ownership changes; deferred dispatch
	// callbacks capture it and bail when stale. dispatched marks that the
	// current thread's dispatch callback has run (interrupt paths must
	// not resume a thread whose dispatch is still in flight).
	epoch      uint64
	dispatched bool

	// inRuntime marks the current thread as executing kernel code for a
	// spawn/wake request; ticks must not preempt it mid-request.
	inRuntime bool

	// Reusable continuations for the interrupt and dispatch hot paths. At
	// most one of each is in flight per CPU (interrupts stay masked until
	// EndIRQ; hw allows one run segment per core), so these replace a fresh
	// closure per tick/IPI/dispatch.
	irqDoneFn func()
	sigDoneFn func()
	runCont   func()
	runTask   *sched.Thread
}

// setCurr changes CPU ownership, invalidating stale deferred callbacks.
func (c *cpu) setCurr(t *sched.Thread) {
	c.curr = t
	c.epoch++
	c.dispatched = false
}

// New builds a kernel over the given cores.
func New(cfg Config) *Kernel {
	if cfg.Machine == nil || len(cfg.CPUs) == 0 {
		panic("ksched: need a machine and at least one CPU")
	}
	k := &Kernel{
		m:          cfg.Machine,
		cost:       cfg.Machine.Cost,
		params:     cfg.Params,
		class:      cfg.Class,
		rand:       rng.New(cfg.Seed ^ 0xC0FFEE),
		WakeupHist: stats.NewHist(),
		liveProc:   make(map[*sched.Thread]*proc.P),
	}
	k.idleSteal = cfg.IdleSteal
	k.hasLent = len(cfg.LentCPUs) > 0
	allCPUs := cfg.CPUs
	if k.hasLent {
		allCPUs = append(append([]int(nil), cfg.CPUs...), cfg.LentCPUs...)
	}
	for i, id := range allCPUs {
		c := &cpu{k: k, idx: i, hwc: cfg.Machine.Cores[id], idle: true}
		if i >= len(cfg.CPUs) {
			// A lent CPU starts offline: the lending runtime owns the core
			// (its IRQ handler, its timer) and forwards IRQs to us only
			// while a lease is active. Online claims nothing either — the
			// lender keeps the handler and we see traffic via ForwardIRQ.
			c.offline = true
			c.idle = false
		} else {
			c.hwc.SetIRQHandler(c.handleIRQ)
		}
		c.irqDoneFn = func() {
			c.hwc.EndIRQ()
			c.afterIRQ()
		}
		c.sigDoneFn = func() {
			if c.curr != nil {
				c.runPendingSignals(c.curr)
			}
			c.hwc.EndIRQ()
			c.afterIRQ()
		}
		c.runCont = func() {
			t := c.runTask
			c.runTask = nil
			c.account(t, t.Remaining)
			c.k.resumeThread(c, t, nil)
		}
		k.cpus = append(k.cpus, c)
		if k.params.HZ > 0 && !c.offline {
			c.hwc.Timer.StartHz(k.params.HZ, tickVector)
		}
	}
	return k
}

// Machine reports the underlying machine.
func (k *Kernel) Machine() *hw.Machine { return k.m }

// ContextSwitches reports the number of kernel context switches performed.
func (k *Kernel) ContextSwitches() uint64 { return k.ctxSwitches }

// ReschedIPIs reports wakeup-preemption IPIs sent between CPUs.
func (k *Kernel) ReschedIPIs() uint64 { return k.reschedIPIs }

// RegisterMetrics registers the kernel's scheduler counters (and the
// underlying machine's fabric counters) on r. All entries are func-backed
// reads of fields the kernel maintains anyway.
func (k *Kernel) RegisterMetrics(r *obs.Registry) {
	r.CounterFunc("ksched.ctx_switches", func() uint64 { return k.ctxSwitches })
	r.CounterFunc("ksched.resched_ipis", func() uint64 { return k.reschedIPIs })
	r.GaugeFunc("ksched.runq.depth", func() int64 { return k.runqDepth })
	r.GaugeFunc("ksched.runq.high_water", func() int64 { return k.runqHighWater })
	r.AttachHistogram("ksched.wakeup_latency", k.WakeupHist)
	// Lending counters exist only when lent CPUs are configured, so the
	// Linux baselines keep their exact pre-lease metric key set.
	if k.hasLent {
		r.CounterFunc("ksched.lease.onlines", func() uint64 { return k.onlines })
		r.CounterFunc("ksched.lease.vacates", func() uint64 { return k.vacates })
	}
	k.m.RegisterMetrics(r)
}

// Threads reports all threads ever created.
func (k *Kernel) Threads() []*sched.Thread { return k.threads }

// Shutdown kills all live thread coroutines (call when a simulation ends).
func (k *Kernel) Shutdown() {
	for _, p := range k.liveProc {
		if !p.Done() {
			// Under strict handoff every live thread is parked in a
			// request at this point, so killing is always safe.
			p.Kill()
		}
		p.Stop()
	}
	k.liveProc = nil
	k.procs.Drain()
	for _, c := range k.cpus {
		c.hwc.Timer.Stop()
	}
}

// Start creates a thread outside any thread context (the program's main) in
// the default class and enqueues it.
func (k *Kernel) Start(name string, body sched.Func) *sched.Thread {
	return k.StartClass(name, k.class, body)
}

// StartClass creates a thread in a specific scheduling class.
func (k *Kernel) StartClass(name string, class Class, body sched.Func) *sched.Thread {
	t := k.newThread(name, class, body)
	t.State = sched.Runnable
	c := k.placeWakeup(t)
	c.enqueue(t, false)
	k.kickIfIdle(c)
	return t
}

func (k *Kernel) newThread(name string, class Class, body sched.Func) *sched.Thread {
	k.nextID++
	t := &sched.Thread{ID: k.nextID, Name: name, LastCPU: -1}
	kth := &kthread{t: t, class: class}
	kth.sleepFn = func() {
		kth.sleepEv = simtime.Event{}
		k.wake(t)
	}
	t.EngData = kth
	env := &kenv{k: k, t: t}
	p := k.procs.Get(name, func(c *proc.Ctx) {
		env.ctx = c
		body(env)
	})
	k.liveProc[t] = p
	k.threads = append(k.threads, t)
	return t
}

// Run drives the simulation until horizon or event exhaustion.
func (k *Kernel) Run(horizon simtime.Time) { k.m.Clock.Run(horizon) }

// RunUntil drives until pred holds.
func (k *Kernel) RunUntil(horizon simtime.Time, pred func() bool) bool {
	return k.m.Clock.RunUntil(horizon, pred)
}

// ---- per-CPU dispatch ----

func (c *cpu) now() simtime.Time { return c.k.m.Now() }

// handleIRQ is the core's physical interrupt entry.
func (c *cpu) handleIRQ(irq hw.IRQ) {
	switch irq.Vector {
	case tickVector:
		c.tick()
	case reschedVector:
		c.reschedIPI()
	case signalVector:
		c.signalIPI()
	case VacateVector:
		c.vacateIPI()
	default:
		c.hwc.EndIRQ()
	}
}

// tick is scheduler_tick(): charge the handler, account the current thread,
// and preempt if its class says so.
func (c *cpu) tick() {
	var ran simtime.Duration
	if c.hwc.Running() {
		ran = c.hwc.StopRun()
	}
	cost := c.k.cost.KernelTick
	t := c.curr
	if t != nil {
		c.account(t, ran)
		if !c.inRuntime && c.classTick(t) {
			c.needResched = true
		}
	}
	c.hwc.Exec(cost, c.irqDoneFn)
}

// reschedIPI handles a wakeup-preemption IPI from another CPU.
func (c *cpu) reschedIPI() {
	c.reschedSent = false
	var ran simtime.Duration
	if c.hwc.Running() {
		ran = c.hwc.StopRun()
	}
	if c.curr != nil {
		c.account(c.curr, ran)
	}
	if !c.inRuntime {
		c.needResched = true
	}
	c.hwc.Exec(c.k.cost.KernelIPIReceive, c.irqDoneFn)
}

// signalIPI delivers pending signals to the running thread.
func (c *cpu) signalIPI() {
	var ran simtime.Duration
	if c.hwc.Running() {
		ran = c.hwc.StopRun()
	}
	if c.curr != nil {
		c.account(c.curr, ran)
	}
	c.hwc.Exec(c.k.cost.SignalReceive, c.sigDoneFn)
}

func (c *cpu) runPendingSignals(t *sched.Thread) {
	k := kt(t)
	for _, h := range k.pendingSignals {
		h()
	}
	k.pendingSignals = nil
}

// afterIRQ resumes execution after an interrupt: either continue the
// current thread or reschedule.
func (c *cpu) afterIRQ() {
	// A dispatch that was mid-flight when the interrupt was recognised may
	// have started a run segment while the handler cost was being charged;
	// absorb it so the paths below own the core exclusively.
	if c.hwc.Running() {
		ran := c.hwc.StopRun()
		if c.curr != nil {
			c.account(c.curr, ran)
		}
	}
	if c.offlinePending && !c.inRuntime {
		// A vacate IPI landed: re-home everything and hand the core back.
		// Mid-runtime-op the flag stays set and the next interrupt (or the
		// broker's forced escalation) completes it.
		c.offlinePending = false
		c.doOffline()
		return
	}
	if c.curr == nil {
		c.schedule()
		return
	}
	if c.needResched {
		c.needResched = false
		t := c.curr
		c.setCurr(nil)
		t.State = sched.Runnable
		c.enqueue(t, false)
		c.schedule()
		return
	}
	if c.dispatched && !c.inRuntime {
		c.resumeCurr()
	}
	// Otherwise a dispatch callback or runtime-op continuation is still
	// in flight and will resume the thread itself.
}

// resumeCurr restarts the current thread's in-flight run segment.
func (c *cpu) resumeCurr() {
	t := c.curr
	if t == nil {
		panic("ksched: resumeCurr with no current thread")
	}
	if t.Remaining <= 0 {
		// The segment finished exactly at the interrupt; complete it.
		c.k.resumeThread(c, t, nil)
		return
	}
	c.runTask = t
	c.hwc.StartRun(t.Remaining, c.runCont)
}

// account charges executed time to t's class bookkeeping.
func (c *cpu) account(t *sched.Thread, ran simtime.Duration) {
	if ran <= 0 {
		return
	}
	t.CPUTime += ran
	t.Remaining -= ran
	if t.Remaining < 0 {
		t.Remaining = 0
	}
	k := kt(t)
	switch k.class {
	case ClassCFS, ClassBatch, ClassEEVDF:
		k.vruntime += float64(ran)
		if k.vruntime > c.minVruntime {
			c.minVruntime = k.vruntime
		}
	}
}

// schedule picks the next thread (__schedule()): RT classes first, then the
// fair classes. With nothing runnable the CPU idles.
func (c *cpu) schedule() {
	if c.offline {
		return // a stale kick landed after the CPU went offline
	}
	next := c.pickNext()
	if next == nil && c.k.idleSteal {
		// newidle balance: pull one thread from the busiest online CPU.
		next = c.k.stealOne(c)
	}
	if next == nil {
		c.setCurr(nil)
		c.idle = true
		return
	}
	c.idle = false
	c.setCurr(next)
	ep := c.epoch
	c.pickedAt = c.now()
	next.State = sched.Running
	next.LastCPU = c.idx
	cost := simtime.Duration(0)
	if c.lastRan != next {
		cost = c.k.cost.KthreadSwitch
		c.k.ctxSwitches++
	}
	c.lastRan = next
	c.hwc.Exec(cost, func() {
		if c.epoch != ep {
			return // ownership changed while the switch was charged
		}
		c.dispatched = true
		if next.WakeArmed {
			next.WakeArmed = false
			if next.RecordWakeup {
				c.k.WakeupHist.Record(c.now() - next.WokenAt)
			}
		}
		// Deliver any signals that queued while the thread was off-CPU.
		if len(kt(next).pendingSignals) > 0 {
			c.runPendingSignals(next)
		}
		c.dispatch(next)
	})
}

// dispatch resumes the chosen thread: either its in-flight run segment or
// its parked request.
func (c *cpu) dispatch(t *sched.Thread) {
	if t.Remaining > 0 {
		c.runTask = t
		c.hwc.StartRun(t.Remaining, c.runCont)
		return
	}
	c.k.resumeThread(c, t, nil)
}

// enqueue adds t to the appropriate class queue on this CPU.
func (c *cpu) enqueue(t *sched.Thread, wakeup bool) {
	t.EnqueuedAt = c.now()
	c.k.runqDepth++
	if c.k.runqDepth > c.k.runqHighWater {
		c.k.runqHighWater = c.k.runqDepth
	}
	k := kt(t)
	switch k.class {
	case ClassRR, ClassFIFO:
		c.rt = append(c.rt, t)
	default:
		if wakeup {
			c.placeFair(k)
		}
		c.fair = append(c.fair, t)
	}
}

// kickIfIdle restarts an idle CPU's scheduling loop.
func (k *Kernel) kickIfIdle(c *cpu) {
	if !c.idle || c.offline {
		return
	}
	c.idle = false
	// The idle loop notices the new task after the wakeup path's cost.
	c.hwc.Exec(k.cost.KthreadSwitchWake, func() {
		if c.curr != nil {
			return // another path already dispatched work here
		}
		c.idle = true // schedule() clears it again
		c.schedule()
	})
}

// placeWakeup selects the CPU for a waking (or new) thread:
// prefer the last CPU if idle, then any idle CPU, then the last CPU.
// Offline (lent-away) CPUs never receive work.
func (k *Kernel) placeWakeup(t *sched.Thread) *cpu {
	if t.LastCPU >= 0 {
		if c := k.cpus[t.LastCPU]; c.idle && !c.offline {
			return c
		}
	}
	for _, c := range k.cpus {
		if c.idle && !c.offline {
			return c
		}
	}
	if t.LastCPU >= 0 && !k.cpus[t.LastCPU].offline {
		return k.cpus[t.LastCPU]
	}
	// Least-loaded online fallback.
	var best *cpu
	for _, c := range k.cpus {
		if c.offline {
			continue
		}
		if best == nil || c.queueLen() < best.queueLen() {
			best = c
		}
	}
	if best == nil {
		panic("ksched: no online CPU to place a thread on")
	}
	return best
}

func (c *cpu) queueLen() int { return len(c.rt) + len(c.fair) }

// wake transitions a blocked/sleeping thread to runnable (try_to_wake_up).
func (k *Kernel) wake(t *sched.Thread) {
	switch t.State {
	case sched.Blocked, sched.Sleeping, sched.Created:
	case sched.Exited:
		return
	default:
		t.WakePending = true
		return
	}
	kth := kt(t)
	if !kth.sleepEv.IsZero() {
		k.m.Clock.Cancel(kth.sleepEv)
		kth.sleepEv = simtime.Event{}
	}
	t.State = sched.Runnable
	t.WokenAt = k.m.Now()
	t.WakeArmed = true
	c := k.placeWakeup(t)
	c.enqueue(t, true)
	if c.idle {
		k.kickIfIdle(c)
		return
	}
	// Wakeup preemption: ask the class whether the woken thread should
	// preempt the CPU's current thread; if so send a resched IPI.
	if c.curr != nil && c.shouldPreemptOnWake(t) {
		c.sendResched()
	}
}

func (c *cpu) sendResched() {
	if c.reschedSent {
		return
	}
	c.reschedSent = true
	c.k.reschedIPIs++
	// Kernel IPI: sender-side cost is charged to the waker's CPU by the
	// wake path (folded into the syscall cost); wire delay here.
	c.k.m.SendIPI(-2, c.hwc.ID, reschedVector, c.k.cost.KernelIPIDeliver, nil)
}

// ExternalWake wakes a thread from outside any thread context (packet
// arrivals, timers) — the netsim.Waker interface.
func (k *Kernel) ExternalWake(t *sched.Thread) { k.wake(t) }

// parkFor puts the current thread to sleep for d and reschedules.
func (c *cpu) parkFor(t *sched.Thread, d simtime.Duration) {
	t.State = sched.Sleeping
	c.noteDequeue(t)
	kth := kt(t)
	kth.sleepEv = c.k.m.Clock.After(d, kth.sleepFn)
	c.setCurr(nil)
	c.schedule()
}

// ---- thread request processing ----

// resumeThread hands control to t's goroutine and services its next
// requests until it parks in a scheduling state.
func (k *Kernel) resumeThread(c *cpu, t *sched.Thread, resp any) {
	p := k.liveProc[t]
	for {
		req := p.Resume(resp)
		resp = nil
		switch r := req.(type) {
		case *sched.RunReq:
			t.Remaining = r.D
			c.dispatch(t)
			return
		case *sched.YieldReq:
			// sched_yield: the cost is realised by the kthread context
			// switch that follows in schedule().
			t.State = sched.Runnable
			c.setCurr(nil)
			c.enqueue(t, false)
			c.schedule()
			return
		case *sched.BlockReq:
			if t.WakePending {
				t.WakePending = false
				continue
			}
			t.State = sched.Blocked
			c.noteDequeue(t)
			c.setCurr(nil)
			c.schedule()
			return
		case *sched.SleepReq:
			c.parkFor(t, r.D)
			return
		case *sched.IOReq:
			// Blocking I/O through the kernel: a syscall, then the kernel
			// schedules another kthread while the I/O completes.
			c.hwc.Exec(k.cost.Syscall, nil)
			c.parkFor(t, r.D)
			return
		case *sched.FaultReq:
			// A page fault parks the faulting kthread; Linux handles this
			// naturally by running someone else on the core.
			c.parkFor(t, r.D)
			return
		case *sched.SpawnReq:
			// pthread_create: mode switches + kernel setup occupy the
			// caller before the child becomes runnable.
			child := k.newThread(r.Name, k.classOf(t), r.Body)
			child.App = t.App
			c.inRuntime = true
			c.hwc.Exec(k.cost.PthreadSpawn, func() {
				c.inRuntime = false
				child.State = sched.Runnable
				tc := k.placeWakeup(child)
				tc.enqueue(child, false)
				k.kickIfIdle(tc)
				k.resumeThread(c, t, child)
			})
			return
		case *sched.WakeReq:
			// futex wake: a syscall on the waker's CPU.
			target := r.T
			c.inRuntime = true
			c.hwc.Exec(k.cost.Syscall, func() {
				c.inRuntime = false
				k.wake(target)
				k.resumeThread(c, t, nil)
			})
			return
		case proc.ExitRequest:
			t.State = sched.Exited
			// Recycle the coroutine; thread-heavy workloads
			// (schbench, thread-per-request servers) reuse it immediately.
			k.procs.Put(k.liveProc[t])
			delete(k.liveProc, t)
			c.setCurr(nil)
			c.schedule()
			return
		default:
			panic(fmt.Sprintf("ksched: unknown request %T", req))
		}
	}
}

func (k *Kernel) classOf(t *sched.Thread) Class { return kt(t).class }

// ---- Env implementation ----

// kenv is a thread's Env. Like core's, it owns one request slot per
// request type and asks with a pointer to it, so no request is boxed.
type kenv struct {
	k   *Kernel
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

func (e *kenv) Now() simtime.Time   { return e.k.m.Now() }
func (e *kenv) Self() *sched.Thread { return e.t }
func (e *kenv) Rand() *rng.Rand     { return e.k.rand }

func (e *kenv) Run(d simtime.Duration) {
	if d <= 0 {
		return
	}
	e.run.D = d
	e.ctx.Ask(&e.run)
}

func (e *kenv) Yield() { e.ctx.Ask(&e.yield) }
func (e *kenv) Block() { e.ctx.Ask(&e.block) }

func (e *kenv) Sleep(d simtime.Duration) {
	e.sleep.D = d
	e.ctx.Ask(&e.sleep)
}

func (e *kenv) IO(d simtime.Duration) {
	e.io.D = d
	e.ctx.Ask(&e.io)
}

func (e *kenv) Fault(d simtime.Duration) {
	e.fault.D = d
	e.ctx.Ask(&e.fault)
}

func (e *kenv) Wake(t *sched.Thread) {
	e.wake.T = t
	e.ctx.Ask(&e.wake)
}

func (e *kenv) Spawn(name string, body sched.Func) *sched.Thread {
	e.spawn = sched.SpawnReq{Name: name, Body: body}
	v := e.ctx.Ask(&e.spawn)
	e.spawn = sched.SpawnReq{} // do not keep body alive past the request
	return v.(*sched.Thread)
}

func (e *kenv) OpCost(op sched.Op) simtime.Duration {
	switch op {
	case sched.OpYield:
		return e.k.cost.PthreadYield
	case sched.OpSpawn:
		return e.k.cost.PthreadSpawn
	case sched.OpMutex:
		return e.k.cost.PthreadMutex
	case sched.OpCondvar:
		return e.k.cost.PthreadCondvar
	}
	return 0
}
