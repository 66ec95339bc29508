// Package trace records scheduling events into a bounded ring and checks
// global invariants over the recorded history — the simulation's analogue
// of Linux's sched tracepoints. Tests use the checker to prove that no
// interleaving ever puts one task on two cores or two tasks on one core,
// and tools can dump the ring to debug a policy.
package trace

import (
	"fmt"

	"skyloft/internal/simtime"
)

// Kind classifies one scheduling event.
type Kind uint8

const (
	// Dispatch: a task takes a core.
	Dispatch Kind = iota
	// Preempt: a task is involuntarily descheduled (Arg = ns executed).
	Preempt
	// Yield: a task voluntarily cedes the core.
	Yield
	// Block: a task parks waiting for a wake.
	Block
	// Sleep: a task parks on a timer / async I/O.
	Sleep
	// Fault: a task stalls its core in the kernel (Arg = ns).
	Fault
	// Exit: a task terminates.
	Exit
	// Wake: a task becomes runnable (CPU = -1: external).
	Wake
	// AppSwitch: a core switches applications (Arg = new app).
	AppSwitch
	// Steal: a core steals a task from another runqueue.
	Steal
	// Inject: a fault-injection action fired on a core (Arg = inject code,
	// see InjectName; CPU = target core, App = -1). Purely informational:
	// the chaos layer records what it did so traces and the doctor can
	// correlate tail windows with injected faults.
	Inject
	// LeaseGrant: a core is lent to a borrower application (CPU = core,
	// App = borrower, Arg = lender app). Informational: lease transitions
	// do not change task ownership themselves — the Dispatch/Preempt
	// stream still carries that — but they let the doctor and the
	// invariant auditor correlate reclaim latency with scheduling.
	LeaseGrant
	// LeaseReclaim: the lender requested its core back; the cooperative
	// grace window starts (CPU = core, App = borrower).
	LeaseReclaim
	// LeaseRevoke: the grace deadline expired and forced revocation
	// engaged (CPU = core, App = borrower).
	LeaseRevoke
	// LeaseReturn: the core came back to the lender (CPU = core,
	// App = borrower, Arg = reclaim latency in ns, 0 for a voluntary
	// return with no reclaim pending).
	LeaseReturn

	// kindCount sizes per-kind count arrays; keep it after the last kind.
	kindCount
)

func (k Kind) String() string {
	switch k {
	case Dispatch:
		return "dispatch"
	case Preempt:
		return "preempt"
	case Yield:
		return "yield"
	case Block:
		return "block"
	case Sleep:
		return "sleep"
	case Fault:
		return "fault"
	case Exit:
		return "exit"
	case Wake:
		return "wake"
	case AppSwitch:
		return "appswitch"
	case Steal:
		return "steal"
	case Inject:
		return "inject"
	case LeaseGrant:
		return "lease-grant"
	case LeaseReclaim:
		return "lease-reclaim"
	case LeaseRevoke:
		return "lease-revoke"
	case LeaseReturn:
		return "lease-return"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Inject event Arg codes — what the fault layer did. Defined here rather
// than in internal/faults so exporters (obs) can name them without
// importing the injection machinery.
const (
	InjectIPIDrop       int64 = iota + 1 // an IPI was swallowed
	InjectIPIDelay                       // an IPI's flight time was inflated
	InjectIPIDup                         // an IPI was delivered twice
	InjectTimerMiss                      // a LAPIC timer fire was skipped
	InjectTimerDrift                     // a LAPIC rearm interval drifted
	InjectUINTRSuppress                  // a UINTR notification was suppressed
	InjectStallOn                        // a core entered a straggler window
	InjectStallOff                       // a core left a straggler window
)

// InjectName names an Inject event's Arg code.
func InjectName(arg int64) string {
	switch arg {
	case InjectIPIDrop:
		return "ipi-drop"
	case InjectIPIDelay:
		return "ipi-delay"
	case InjectIPIDup:
		return "ipi-dup"
	case InjectTimerMiss:
		return "timer-miss"
	case InjectTimerDrift:
		return "timer-drift"
	case InjectUINTRSuppress:
		return "uintr-suppress"
	case InjectStallOn:
		return "stall-on"
	case InjectStallOff:
		return "stall-off"
	}
	return fmt.Sprintf("inject(%d)", arg)
}

// Event is one trace record.
type Event struct {
	At   simtime.Time
	Kind Kind
	CPU  int
	Task int // thread ID (0 when not task-scoped)
	App  int
	Arg  int64
}

func (e Event) String() string {
	return fmt.Sprintf("%-12v cpu=%-2d app=%-2d task=%-4d %-9s arg=%d",
		e.At, e.CPU, e.App, e.Task, e.Kind, e.Arg)
}

// Ring is a bounded event recorder. The zero value is unusable; use New.
// The ring is owned sim state: its hash and counters are part of the
// determinism contract, so only the simulation itself may write it.
// Observers attach through the declared tap surface (SetTap/AddTap/
// RemoveTap) and never mutate anything else.
//
//simlint:owner sim
type Ring struct {
	buf     []Event
	next    int
	wrapped bool
	total   uint64
	hash    uint64
	counts  [kindCount]uint64
	tap     func(Event)
	taps    []func(Event)
}

// SetTap installs fn to observe every event as it is recorded (nil removes
// it). The tap runs synchronously inside Record, after the event has been
// hashed and appended, so it sees the exact recorded stream — including
// events the ring later evicts. Taps must not mutate simulation state: they
// exist for attach-only consumers (the live telemetry bus) that fold the
// stream incrementally instead of draining the ring post-hoc.
//
//simlint:attachpoint tap registration is the sanctioned observer mutation
func (r *Ring) SetTap(fn func(Event)) { r.tap = fn }

// AddTap installs an additional tap alongside the primary SetTap slot and
// returns a handle for RemoveTap. Extra taps run after the primary tap, in
// registration order, under the same contract: synchronous, read-only,
// attach-only. Multiple observers (the live bus via SetTap, the causal
// tracer via AddTap) can therefore share one ring.
//
//simlint:attachpoint tap registration is the sanctioned observer mutation
func (r *Ring) AddTap(fn func(Event)) int {
	r.taps = append(r.taps, fn)
	return len(r.taps) - 1
}

// RemoveTap uninstalls the extra tap registered under id. Slots are not
// reused, so handles stay valid across removals of other taps.
//
//simlint:attachpoint tap removal is the sanctioned observer mutation
func (r *Ring) RemoveTap(id int) {
	if id >= 0 && id < len(r.taps) {
		r.taps[id] = nil
	}
}

// New creates a ring holding up to capacity events.
func New(capacity int) *Ring {
	if capacity <= 0 {
		capacity = 1 << 16
	}
	return &Ring{buf: make([]Event, 0, capacity), hash: fnvOffset}
}

// FNV-1a over every recorded event's fields, maintained incrementally so
// Hash covers the full history even after the ring evicts old events.
const (
	fnvOffset uint64 = 14695981039346656037
	fnvPrime  uint64 = 1099511628211
)

func fnvMix(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= v & 0xFF
		h *= fnvPrime
		v >>= 8
	}
	return h
}

// Record appends an event, evicting the oldest when full.
func (r *Ring) Record(ev Event) {
	r.total++
	if int(ev.Kind) < len(r.counts) {
		r.counts[ev.Kind]++
	}
	h := fnvMix(r.hash, uint64(ev.At))
	h = fnvMix(h, uint64(ev.Kind))
	h = fnvMix(h, uint64(int64(ev.CPU)))
	h = fnvMix(h, uint64(int64(ev.Task)))
	h = fnvMix(h, uint64(int64(ev.App)))
	h = fnvMix(h, uint64(ev.Arg))
	r.hash = h
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, ev)
	} else {
		r.buf[r.next] = ev
		r.next = (r.next + 1) % len(r.buf)
		r.wrapped = true
	}
	if r.tap != nil {
		r.tap(ev)
	}
	for _, tap := range r.taps {
		if tap != nil {
			tap(ev)
		}
	}
}

// Total reports events recorded over the ring's lifetime.
func (r *Ring) Total() uint64 { return r.total }

// Hash reports a running FNV-1a digest of every event ever recorded (not
// just the retained window). Two runs are behaviourally identical iff their
// totals and hashes match — the determinism tests' primary witness.
func (r *Ring) Hash() uint64 { return r.hash }

// Count reports lifetime events of one kind.
func (r *Ring) Count(k Kind) uint64 {
	if int(k) >= len(r.counts) {
		return 0
	}
	return r.counts[k]
}

// Events returns the retained window in chronological order.
func (r *Ring) Events() []Event { return r.AppendEvents(nil) }

// AppendEvents appends the retained window in chronological order to dst and
// returns the extended slice. Dump paths that drain the ring repeatedly (the
// long-sweep windowed pattern: AppendEvents into a reused buffer, process,
// Reset) avoid reallocating the full window per call by passing dst[:0].
func (r *Ring) AppendEvents(dst []Event) []Event {
	if !r.wrapped {
		return append(dst, r.buf...)
	}
	dst = append(dst, r.buf[r.next:]...)
	return append(dst, r.buf[:r.next]...)
}

// Reset discards the retained window so the ring starts filling afresh.
// Lifetime state — Total, Counts and the determinism Hash — is preserved:
// Reset bounds the *memory* of a long run, not its identity.
func (r *Ring) Reset() {
	r.buf = r.buf[:0]
	r.next = 0
	r.wrapped = false
}

// Validate checks the core scheduling invariants over a chronological
// event sequence:
//
//  1. a core runs at most one task at a time (Dispatch on an occupied core
//     without an intervening off-CPU event is an error);
//  2. a task runs on at most one core at a time;
//  3. off-CPU events name the task that actually occupies that core;
//  4. nothing is dispatched after its Exit;
//  5. a Steal transfers runqueue ownership: the stolen task's next Dispatch
//     must come from the stealing core's dispatch stream, the task must not
//     be running when stolen, and exited tasks cannot be stolen.
//
// It returns the first violation, or nil.
func Validate(events []Event) error {
	onCore := map[int]int{}   // cpu -> task
	taskOn := map[int]int{}   // task -> cpu
	exited := map[int]bool{}  // task -> true
	stolenTo := map[int]int{} // task -> cpu owning its next dispatch
	for i, ev := range events {
		switch ev.Kind {
		case Dispatch:
			if exited[ev.Task] {
				return fmt.Errorf("event %d: %v: dispatch of exited task", i, ev)
			}
			if cur, busy := onCore[ev.CPU]; busy && cur != ev.Task {
				return fmt.Errorf("event %d: %v: core already runs task %d", i, ev, cur)
			}
			if cpu, running := taskOn[ev.Task]; running && cpu != ev.CPU {
				return fmt.Errorf("event %d: %v: task already on core %d", i, ev, cpu)
			}
			if owner, stolen := stolenTo[ev.Task]; stolen {
				if owner != ev.CPU {
					return fmt.Errorf("event %d: %v: task was stolen to core %d's runqueue", i, ev, owner)
				}
				delete(stolenTo, ev.Task)
			}
			onCore[ev.CPU] = ev.Task
			taskOn[ev.Task] = ev.CPU
		case Preempt, Yield, Block, Sleep, Exit:
			cur, busy := onCore[ev.CPU]
			if !busy {
				return fmt.Errorf("event %d: %v: off-CPU event on idle core", i, ev)
			}
			if cur != ev.Task {
				return fmt.Errorf("event %d: %v: core runs task %d, not %d", i, ev, cur, ev.Task)
			}
			delete(onCore, ev.CPU)
			delete(taskOn, ev.Task)
			if ev.Kind == Exit {
				exited[ev.Task] = true
			}
		case Steal:
			if exited[ev.Task] {
				return fmt.Errorf("event %d: %v: steal of exited task", i, ev)
			}
			if cpu, running := taskOn[ev.Task]; running {
				return fmt.Errorf("event %d: %v: steal of task running on core %d", i, ev, cpu)
			}
			// A re-steal before the task ran simply moves it again; the
			// latest stealing core owns the next dispatch.
			stolenTo[ev.Task] = ev.CPU
		case Wake, AppSwitch, Fault, Inject,
			LeaseGrant, LeaseReclaim, LeaseRevoke, LeaseReturn:
			// Informational; no ownership change.
		}
	}
	return nil
}

// Stats counts scheduling events by kind, either over the ring's lifetime
// (Ring.Counts) or over an event window (Summarise).
type Stats struct {
	Dispatches, Preempts, Yields, Blocks, Sleeps, Faults, Exits,
	Wakes, AppSwitches, Steals, Injects, LeaseEvents uint64
}

// fromCounts fills s from a per-kind count array (the ring's lifetime
// counters), keeping the two Stats sources structurally identical.
func (s *Stats) fromCounts(counts *[kindCount]uint64) {
	s.Dispatches = counts[Dispatch]
	s.Preempts = counts[Preempt]
	s.Yields = counts[Yield]
	s.Blocks = counts[Block]
	s.Sleeps = counts[Sleep]
	s.Faults = counts[Fault]
	s.Exits = counts[Exit]
	s.Wakes = counts[Wake]
	s.AppSwitches = counts[AppSwitch]
	s.Steals = counts[Steal]
	s.Injects = counts[Inject]
	s.LeaseEvents = counts[LeaseGrant] + counts[LeaseReclaim] +
		counts[LeaseRevoke] + counts[LeaseReturn]
}

// Counts reports lifetime event counts by kind — the authoritative totals,
// independent of what the bounded window still retains.
func (r *Ring) Counts() Stats {
	var s Stats
	s.fromCounts(&r.counts)
	return s
}

// Summarise counts event kinds in a window. For lifetime totals use
// Ring.Counts; this helper exists for windowed slices (e.g. the tail of a
// dump, or one AppendEvents batch of a long sweep).
func Summarise(events []Event) Stats {
	var counts [kindCount]uint64
	for _, ev := range events {
		if int(ev.Kind) < len(counts) {
			counts[ev.Kind]++
		}
	}
	var s Stats
	s.fromCounts(&counts)
	return s
}
