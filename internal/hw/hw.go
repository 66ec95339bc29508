// Package hw models the evaluation machine: a dual-socket multicore with
// per-core local APIC timers and an IPI fabric, driven by the discrete-event
// clock in simtime. It substitutes for the paper's Sapphire Rapids testbed
// (2× 24-core Xeon Gold 5418Y @ 2.0 GHz): scheduling engines run *on top of*
// this package exactly as the real systems run on top of the hardware.
//
// Execution model. A core serializes two kinds of occupancy:
//
//   - Exec(cost, fn): non-interruptible bookkeeping time — scheduler code,
//     context switches, interrupt handler bodies. Calls chain: each Exec
//     begins when the previous occupancy ends.
//   - StartRun(d, onDone): an interruptible segment of application work.
//     An interrupt arriving mid-segment lets the engine StopRun() and learn
//     how much work was actually completed.
//
// Interrupts are queued per core and delivered when the core is not already
// inside a handler; the handler owns the core until it calls EndIRQ.
package hw

import (
	"fmt"

	"skyloft/internal/cycles"
	"skyloft/internal/obs"
	"skyloft/internal/simtime"
)

// IRQ is one delivered interrupt.
type IRQ struct {
	Vector uint8
	From   int // sending core ID, or TimerSource for LAPIC timer expiry
	Data   any // optional payload attached by the sender
}

// TimerSource is the IRQ.From value for local APIC timer interrupts.
const TimerSource = -1

// Config sizes the machine.
type Config struct {
	Cores          int
	CoresPerSocket int
	Cost           cycles.Model
}

// DefaultConfig mirrors the paper's server: 48 hyperthreads across two
// 24-core sockets. Most experiments use 24 or fewer isolated cores.
func DefaultConfig() Config {
	return Config{Cores: 48, CoresPerSocket: 24, Cost: cycles.Default()}
}

// Machine is the simulated host.
type Machine struct {
	Clock *simtime.Clock
	Cores []*Core
	Cost  cycles.Model

	// Hooks lets a fault-injection layer perturb the delivery substrate.
	// Nil (the default) is the zero-overhead happy path: no branch beyond a
	// nil check runs, so clean-run traces stay bit-identical.
	Hooks *FaultHooks

	coresPerSocket int
	ipisSent       uint64
	irqsCoalesced  uint64     // interrupt edges absorbed by a pending vector
	ipiFree        *ipiFlight // recycled in-flight IPI records
}

// IPIVerdict is a fault hook's decision about one IPI send.
type IPIVerdict struct {
	Drop  bool             // swallow the IPI: it never reaches the wire
	Extra simtime.Duration // additional flight time (late delivery)
	Dup   int              // extra duplicate deliveries after the original
}

// TimerVerdict is a fault hook's decision about one LAPIC timer expiry.
type TimerVerdict struct {
	Miss  bool             // skip this fire (periodic timers still rearm)
	Drift simtime.Duration // offset applied to the next periodic rearm
}

// FaultHooks are consulted, when installed, at each fault-injectable point
// in the delivery substrate. All three are optional. Implementations must
// be deterministic functions of their own seeded state — they run inside
// the event loop and become part of the replayed history.
type FaultHooks struct {
	// IPI is consulted by Machine.SendIPI before the flight is scheduled.
	IPI func(from, to int, vec uint8) IPIVerdict
	// Timer is consulted by LAPICTimer at each expiry (periodic and
	// one-shot) before the interrupt is raised.
	Timer func(core int) TimerVerdict
	// UIPI is consulted by the UINTR sender path (uintrsim) before a user
	// interrupt notification is posted; true suppresses the notification
	// as if the receiver's SN bit were set, leaving PIR bits posted but
	// undelivered — the paper's §3.2 recovery trap.
	UIPI func(to int, vec uint8) bool
}

// ipiFlight is one IPI on the wire: a pooled record whose bound deliver
// method replaces a per-send closure (IPIs are the densest event source in
// preemption-heavy runs).
type ipiFlight struct {
	m      *Machine
	target *Core
	irq    IRQ
	next   *ipiFlight
	fire   func() // bound deliver method, allocated once per record
}

func (f *ipiFlight) deliver() {
	target, irq := f.target, f.irq
	f.target = nil
	f.irq = IRQ{}
	f.next = f.m.ipiFree
	f.m.ipiFree = f
	target.Interrupt(irq)
}

// NewMachine builds a machine per cfg with a fresh event clock.
func NewMachine(cfg Config) *Machine {
	if cfg.Cores <= 0 {
		panic("hw: machine needs at least one core")
	}
	if cfg.CoresPerSocket <= 0 {
		cfg.CoresPerSocket = cfg.Cores
	}
	m := &Machine{
		Cost:           cfg.Cost,
		coresPerSocket: cfg.CoresPerSocket,
		Clock:          simtime.NewClock(),
	}
	for i := 0; i < cfg.Cores; i++ {
		c := &Core{ID: i, m: m}
		c.Timer = &LAPICTimer{core: c}
		c.deliverFn = c.deliverOne
		c.runDoneFn = c.runDone
		m.Cores = append(m.Cores, c)
	}
	return m
}

// Now reports the current virtual time.
func (m *Machine) Now() simtime.Time { return m.Clock.Now() }

// Socket reports which socket core id belongs to.
func (m *Machine) Socket(id int) int { return id / m.coresPerSocket }

// SameSocket reports whether two cores share a socket (IPI latency is higher
// across sockets; paper Table 6's "cross NUMA nodes" row).
func (m *Machine) SameSocket(a, b int) bool { return m.Socket(a) == m.Socket(b) }

// IPIsSent reports the total number of inter-processor interrupts sent.
func (m *Machine) IPIsSent() uint64 { return m.ipisSent }

// IRQsCoalesced reports interrupt edges that were absorbed because the same
// vector was already pending on the target core (local-APIC IRR semantics).
func (m *Machine) IRQsCoalesced() uint64 { return m.irqsCoalesced }

// TimerFires reports timer interrupts fired across all cores.
func (m *Machine) TimerFires() uint64 {
	var n uint64
	for _, c := range m.Cores {
		n += c.Timer.Fires()
	}
	return n
}

// RegisterMetrics exposes the machine's fabric counters on the registry.
// Everything is func-backed: the hot paths keep their plain counters and
// the registry reads them only at snapshot time.
func (m *Machine) RegisterMetrics(r *obs.Registry) {
	r.CounterFunc("hw.ipis.sent", func() uint64 { return m.ipisSent })
	r.CounterFunc("hw.irqs.coalesced", func() uint64 { return m.irqsCoalesced })
	r.CounterFunc("hw.timer.fires", m.TimerFires)
	r.CounterFunc("hw.clock.dispatched", m.Clock.Dispatched)
}

// SendIPI posts an interrupt from core `from` to core `to` after the given
// wire delay. The *send-side* cost must be charged separately by the caller
// (it occupies the sender, not the wire).
func (m *Machine) SendIPI(from, to int, vec uint8, delay simtime.Duration, data any) {
	if to < 0 || to >= len(m.Cores) {
		panic(fmt.Sprintf("hw: IPI to invalid core %d", to))
	}
	m.ipisSent++
	if h := m.Hooks; h != nil && h.IPI != nil {
		v := h.IPI(from, to, vec)
		if v.Drop {
			return // swallowed on the wire; the sender already paid send cost
		}
		delay += v.Extra
		for i := 0; i < v.Dup; i++ {
			m.queueIPI(from, to, vec, delay, data)
		}
	}
	m.queueIPI(from, to, vec, delay, data)
}

// queueIPI puts one IPI on the wire using the pooled flight records.
func (m *Machine) queueIPI(from, to int, vec uint8, delay simtime.Duration, data any) {
	f := m.ipiFree
	if f != nil {
		m.ipiFree = f.next
	} else {
		f = &ipiFlight{m: m}
		f.fire = f.deliver
	}
	f.target = m.Cores[to]
	f.irq = IRQ{Vector: vec, From: from, Data: data}
	m.Clock.After(delay, f.fire)
}

// Core is one simulated hardware thread. Its state is owned sim state:
// every mutation happens inside serially dispatched event callbacks, and
// observer-grade packages may not reach it at all.
//
//simlint:owner sim
type Core struct {
	ID    int
	Timer *LAPICTimer

	m         *Machine
	busyUntil simtime.Time
	running   bool
	stall     int64 // wall-time multiplier for occupancy; <=1 means normal
	run       runState

	handler     func(IRQ)
	inIRQ       bool
	pending     []IRQ // queued IRQs from pendingHead on (head-indexed ring)
	pendingHead int
	deliverEvt  simtime.Event
	deliverFn   func()       // scheduleDelivery callback, allocated once per core
	runDoneFn   func()       // StartRun completion callback, allocated once per core
	lastIRQAt   simtime.Time // most recent handler entry, for causal tracing

	busyAccum simtime.Duration // total occupied time, for utilisation stats
}

// runState is the core's single in-flight application segment; one per core,
// embedded to avoid a per-StartRun allocation. duration is wall time on a
// stalled core; work is the logical amount requested, and scale converts
// between the two (captured at StartRun so a stall window ending mid-segment
// does not retroactively speed the segment up).
type runState struct {
	started  simtime.Time
	duration simtime.Duration // wall time: work * scale
	work     simtime.Duration
	scale    int64
	done     simtime.Event
	onDone   func()
}

// Machine reports the owning machine.
func (c *Core) Machine() *Machine { return c.m }

// SetIRQHandler installs the engine's interrupt handler. The handler runs
// with further interrupts masked and must eventually call EndIRQ (possibly
// from a later Exec continuation).
func (c *Core) SetIRQHandler(h func(IRQ)) { c.handler = h }

// BusyTime reports the cumulative occupied (non-idle) time on this core.
func (c *Core) BusyTime() simtime.Duration { return c.busyAccum }

// SetStall sets the core's straggler factor: all subsequent Exec and
// StartRun occupancy takes factor× the wall time (factor <= 1 restores
// normal speed). Segments already in flight keep the factor they started
// with. This models a transiently slow core — SMI storms, thermal
// throttling, a noisy hypervisor neighbour — for fault injection.
func (c *Core) SetStall(factor int64) {
	if factor < 1 {
		factor = 1
	}
	c.stall = factor
}

// Stall reports the current straggler factor (1 = normal speed).
func (c *Core) Stall() int64 {
	if c.stall < 1 {
		return 1
	}
	return c.stall
}

// free reports the earliest instant the core can begin new occupancy.
func (c *Core) free() simtime.Time {
	now := c.m.Clock.Now()
	if c.busyUntil > now {
		return c.busyUntil
	}
	return now
}

// Exec occupies the core for cost nanoseconds of non-interruptible
// bookkeeping starting when prior occupancy ends, then runs fn. fn may be
// nil. Exec panics if an application segment is currently running: engines
// must StopRun first.
func (c *Core) Exec(cost simtime.Duration, fn func()) {
	if c.running {
		panic(fmt.Sprintf("hw: core %d Exec while a run segment is active", c.ID))
	}
	if cost < 0 {
		panic("hw: negative Exec cost")
	}
	if c.stall > 1 {
		cost *= simtime.Duration(c.stall)
	}
	start := c.free()
	c.busyUntil = start + cost
	c.busyAccum += cost
	if fn == nil {
		return
	}
	c.m.Clock.At(c.busyUntil, fn)
}

// StartRun begins an interruptible application work segment of the given
// length, invoking onDone when it completes uninterrupted. Only one segment
// may be active at a time.
func (c *Core) StartRun(d simtime.Duration, onDone func()) {
	if c.running {
		panic(fmt.Sprintf("hw: core %d StartRun while already running", c.ID))
	}
	if d < 0 {
		panic("hw: negative run duration")
	}
	scale := c.Stall()
	wall := d * simtime.Duration(scale)
	start := c.free()
	c.run = runState{started: start, duration: wall, work: d, scale: scale, onDone: onDone}
	c.run.done = c.m.Clock.At(start+wall, c.runDoneFn)
	c.running = true
	c.busyUntil = start + wall
}

func (c *Core) runDone() {
	c.running = false
	c.busyAccum += c.run.duration
	onDone := c.run.onDone
	c.run.onDone = nil
	onDone()
}

// Running reports whether an application segment is active.
func (c *Core) Running() bool { return c.running }

// StopRun cancels the active segment and reports how much of its work had
// completed by now (in work units: on a stalled core, wall time is divided
// by the straggler factor, so accounting stays in the task's own currency).
// It panics if no segment is active.
func (c *Core) StopRun() simtime.Duration {
	if !c.running {
		panic(fmt.Sprintf("hw: core %d StopRun with no active run", c.ID))
	}
	rs := &c.run
	c.m.Clock.Cancel(rs.done)
	c.running = false
	rs.onDone = nil
	now := c.m.Clock.Now()
	elapsed := now - rs.started
	if elapsed < 0 {
		elapsed = 0 // segment was queued behind busyUntil and never began
	}
	if elapsed > rs.duration {
		elapsed = rs.duration
	}
	c.busyAccum += elapsed
	// Occupancy ends where the segment's executed portion ends; for a
	// never-started segment the pre-existing occupancy (up to rs.started)
	// still stands.
	c.busyUntil = rs.started + elapsed
	work := elapsed
	if rs.scale > 1 {
		work = elapsed / simtime.Duration(rs.scale)
		if work > rs.work {
			work = rs.work
		}
	}
	return work
}

// Interrupt queues irq for delivery on this core. Interrupts with the same
// vector coalesce while pending, matching local-APIC IRR semantics.
func (c *Core) Interrupt(irq IRQ) {
	for i := c.pendingHead; i < len(c.pending); i++ {
		if c.pending[i].Vector == irq.Vector {
			c.m.irqsCoalesced++
			return // already pending; edge coalesced
		}
	}
	if c.pendingHead > 0 && c.pendingHead == len(c.pending) {
		// Queue drained: rewind so the backing array's capacity is reused
		// instead of reallocating on every append.
		c.pending = c.pending[:0]
		c.pendingHead = 0
	}
	c.pending = append(c.pending, irq)
	c.scheduleDelivery()
}

// PendingIRQs reports the number of queued, undelivered interrupts.
func (c *Core) PendingIRQs() int { return len(c.pending) - c.pendingHead }

func (c *Core) scheduleDelivery() {
	if c.inIRQ || !c.deliverEvt.IsZero() || c.PendingIRQs() == 0 || c.handler == nil {
		return
	}
	// Interrupts preempt run segments immediately but wait out
	// non-interruptible Exec occupancy (interrupts are recognised at the
	// next instruction boundary; Exec models masked critical sections).
	at := c.m.Clock.Now()
	if !c.running && c.busyUntil > at {
		at = c.busyUntil
	}
	c.deliverEvt = c.m.Clock.At(at, c.deliverFn)
}

func (c *Core) deliverOne() {
	c.deliverEvt = simtime.Event{}
	if c.inIRQ || c.PendingIRQs() == 0 {
		return
	}
	irq := c.pending[c.pendingHead]
	c.pending[c.pendingHead] = IRQ{}
	c.pendingHead++
	c.inIRQ = true
	c.lastIRQAt = c.m.Clock.Now()
	c.handler(irq)
}

// LastIRQAt reports the instant the most recent interrupt entered this
// core's handler (zero before any delivery). Observability-only: the causal
// tracer annotates dispatch hops with the hardware notification instant.
func (c *Core) LastIRQAt() simtime.Time { return c.lastIRQAt }

// InIRQ reports whether the core is inside an interrupt handler.
func (c *Core) InIRQ() bool { return c.inIRQ }

// EndIRQ marks the current handler complete (the UIRET/IRET point) and
// allows queued interrupts to be delivered once current occupancy drains.
func (c *Core) EndIRQ() {
	if !c.inIRQ {
		panic(fmt.Sprintf("hw: core %d EndIRQ outside handler", c.ID))
	}
	c.inIRQ = false
	c.scheduleDelivery()
}

// LAPICTimer is the per-core local APIC timer, supporting periodic mode
// (classic tick) and one-shot mode (TSC-deadline style, the basis of the
// paper's §6 "kernel-bypass timer reset" / User-Timer Events discussion).
//
//simlint:owner sim
type LAPICTimer struct {
	core      *Core
	period    simtime.Duration
	vector    uint8
	enabled   bool
	oneshot   bool
	next      simtime.Event
	fires     uint64
	fireFn    func() // periodic expiry callback, allocated once per timer
	oneshotFn func() // one-shot expiry callback, allocated once per timer
}

// Start arms the timer with the given period and interrupt vector.
func (t *LAPICTimer) Start(period simtime.Duration, vector uint8) {
	if period <= 0 {
		panic("hw: timer period must be positive")
	}
	t.Stop()
	t.period = period
	t.vector = vector
	t.enabled = true
	t.arm()
}

// StartHz arms the timer at hz ticks per second.
func (t *LAPICTimer) StartHz(hz int64, vector uint8) {
	if hz <= 0 {
		panic("hw: timer frequency must be positive")
	}
	t.Start(simtime.Second/simtime.Duration(hz), vector)
}

// ArmOneShot programs a single expiry after d (cancelling any pending
// deadline or periodic programme) — the TSC-deadline register write.
func (t *LAPICTimer) ArmOneShot(d simtime.Duration, vector uint8) {
	if d <= 0 {
		panic("hw: one-shot deadline must be positive")
	}
	t.Stop()
	t.vector = vector
	t.enabled = true
	t.oneshot = true
	if t.oneshotFn == nil {
		t.oneshotFn = func() {
			if !t.enabled {
				return
			}
			t.enabled = false
			t.next = simtime.Event{}
			if h := t.core.m.Hooks; h != nil && h.Timer != nil && h.Timer(t.core.ID).Miss {
				return // deadline expiry lost; software must notice and rearm
			}
			t.fires++
			t.core.Interrupt(IRQ{Vector: t.vector, From: TimerSource})
		}
	}
	t.next = t.core.m.Clock.After(d, t.oneshotFn)
}

// Stop disarms the timer.
func (t *LAPICTimer) Stop() {
	t.enabled = false
	t.oneshot = false
	if !t.next.IsZero() {
		t.core.m.Clock.Cancel(t.next)
		t.next = simtime.Event{}
	}
}

// Enabled reports whether the timer is armed.
func (t *LAPICTimer) Enabled() bool { return t.enabled }

// Period reports the configured period (0 if never armed).
func (t *LAPICTimer) Period() simtime.Duration { return t.period }

// Fires reports how many timer interrupts have fired.
func (t *LAPICTimer) Fires() uint64 { return t.fires }

func (t *LAPICTimer) arm() {
	if t.fireFn == nil {
		t.fireFn = func() {
			if !t.enabled {
				return
			}
			rearm := t.period
			miss := false
			if h := t.core.m.Hooks; h != nil && h.Timer != nil {
				v := h.Timer(t.core.ID)
				miss = v.Miss
				rearm += v.Drift
				if rearm <= 0 {
					rearm = 1 // a drifted period still moves time forward
				}
			}
			if !miss {
				t.fires++
				t.core.Interrupt(IRQ{Vector: t.vector, From: TimerSource})
			}
			t.next = t.core.m.Clock.After(rearm, t.fireFn)
		}
	}
	t.next = t.core.m.Clock.After(t.period, t.fireFn)
}
