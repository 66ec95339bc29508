// Package simtime provides the virtual clock and discrete-event queue that
// drive the simulated machine. All of Skyloft's simulated hardware, kernel,
// and schedulers advance time exclusively through this package, which makes
// every run fully deterministic: identical seeds and parameters replay the
// exact same event trace.
//
// The queue is built for the workload the simulator actually generates —
// dense streams of near-future timers (100 kHz LAPIC ticks, microsecond
// run/sleep quanta) — rather than the general case: events live in a pooled
// slab (no per-event allocation) and are indexed by a single-level timer
// wheel covering the near future, with an overflow heap for far timers.
// Dispatch order is exactly (deadline, schedule sequence), identical to a
// pure min-heap; the differential tests compare it against HeapClock, a
// test-only binary-heap reference implementation.
package simtime

import (
	"fmt"
	"math/bits"
)

// Time is a point in virtual time, in nanoseconds since simulation start.
type Time int64

// Duration is a span of virtual time in nanoseconds.
type Duration = Time

// Common durations, mirroring time.Duration conventions.
const (
	Nanosecond  Duration = 1
	Microsecond          = 1000 * Nanosecond
	Millisecond          = 1000 * Microsecond
	Second               = 1000 * Millisecond
)

// Infinity is a sentinel time far beyond any simulated horizon.
const Infinity Time = 1<<62 - 1

func (t Time) String() string {
	switch {
	case t >= Second:
		return fmt.Sprintf("%.3fs", float64(t)/float64(Second))
	case t >= Millisecond:
		return fmt.Sprintf("%.3fms", float64(t)/float64(Millisecond))
	case t >= Microsecond:
		return fmt.Sprintf("%.3fus", float64(t)/float64(Microsecond))
	default:
		return fmt.Sprintf("%dns", int64(t))
	}
}

// Micros reports t as a float64 number of microseconds.
func (t Time) Micros() float64 { return float64(t) / float64(Microsecond) }

// Event is a handle to a scheduled callback. It is a small value (index +
// generation into the clock's pooled event store), cheap to copy and embed
// in structs. The zero Event means "no event": Cancel on it reports false
// and IsZero reports true. Handles to events that already fired or were
// cancelled go stale — the generation check makes Cancel on them a safe
// no-op even after the underlying store slot has been recycled.
type Event struct {
	idx uint32
	gen uint32
}

// IsZero reports whether e is the zero "no event" handle.
func (e Event) IsZero() bool { return e == Event{} }

// Timer wheel geometry. Slots of 64 ns; 4096 slots cover a ~262 µs window,
// about 26 periods of the dominant 100 kHz tick stream, so recurring timers
// almost always take the O(1) wheel path. Events beyond the window wait in
// the overflow heap and migrate into the wheel as its base advances.
const (
	granBits   = 6
	wheelBits  = 12
	wheelSlots = 1 << wheelBits
	wheelMask  = wheelSlots - 1
	wheelWords = wheelSlots / 64
)

// node is one slot of the pooled event store. Index 0 is reserved as a
// sentinel so that zero-valued links and slot heads mean "none".
type node struct {
	at   Time
	seq  uint64
	fn   func()
	next uint32 // wheel-list link / freelist link
	prev uint32 // wheel-list link
	hpos int32  // position in overflow heap when loc == locOverflow
	loc  int32  // wheel slot index, or locFree / locOverflow
	gen  uint32
}

const (
	locFree     int32 = -1
	locOverflow int32 = -2
)

// EventCore is the narrow event-core surface for callers that only read
// time and schedule callbacks — observers, the lease manager, bench hooks
// and the host benchmark — so they need not name the concrete Clock.
//
// The interface is owned sim state (DESIGN.md §14): attachonly treats any
// unmarked method as mutating, since an interface has no body to analyze.
// The query methods are asserted read-only; scheduling is off-limits to
// observer-grade packages.
//
//simlint:owner sim
type EventCore interface {
	Now() Time //simlint:readonly
	At(at Time, fn func()) Event
	After(d Duration, fn func()) Event
	Dispatched() uint64 //simlint:readonly
}

var _ EventCore = (*Clock)(nil)

// Clock owns virtual time and the pending-event store. All mutation happens
// in serially dispatched event callbacks or in setup before a run.
//
//simlint:owner sim
type Clock struct {
	now      Time
	seq      uint64
	nEvent   uint64 // total events dispatched, for trace hashing/debug
	observer func() // nil unless SetObserver; runs after each dispatch

	nodes []node
	free  uint32 // freelist head (0 = empty)
	nFree int

	baseTick int64 // wheel window start, in granBits ticks; never decreases, <= tick(now) (see step)
	nWheel   int
	slots    [wheelSlots]uint32 // per-slot circular list head (0 = empty)
	bitmap   [wheelWords]uint64 // occupancy, one bit per slot

	heap []uint32 // overflow: 4-ary min-heap of node indices by (at, seq)
}

// NewClock returns a clock at time zero with an empty event queue.
func NewClock() *Clock {
	return &Clock{nodes: make([]node, 1, 64)} // index 0 reserved as sentinel
}

// Now reports the current virtual time.
func (c *Clock) Now() Time { return c.now }

// Dispatched reports how many events have been dispatched so far.
func (c *Clock) Dispatched() uint64 { return c.nEvent }

// Pending reports the number of events currently queued.
func (c *Clock) Pending() int { return c.nWheel + len(c.heap) }

// StoreSize reports the capacity of the pooled event store (slots ever
// allocated). It grows to the high-water mark of concurrently pending
// events and then stays flat; leak tests assert it stops growing.
func (c *Clock) StoreSize() int { return len(c.nodes) - 1 }

// StoreFree reports how many store slots sit on the free list. StoreSize
// minus StoreFree always equals Pending; anything else means an event
// escaped both the queue and the pool.
func (c *Clock) StoreFree() int { return c.nFree }

// alloc takes a slot from the freelist (or grows the slab) and initialises
// it as a pending event carrying the current schedule sequence number.
func (c *Clock) alloc(at Time, fn func()) uint32 {
	var id uint32
	if c.free != 0 {
		id = c.free
		c.free = c.nodes[id].next
		c.nFree--
	} else {
		c.nodes = append(c.nodes, node{})
		id = uint32(len(c.nodes) - 1)
	}
	n := &c.nodes[id]
	n.at = at
	n.seq = c.seq
	n.fn = fn
	n.gen++
	if n.gen == 0 { // generation 0 is reserved for the zero handle
		n.gen = 1
	}
	return id
}

// release returns a fired or cancelled slot to the pool. The callback is
// dropped immediately so the pool never pins closures (and whatever they
// capture) beyond the event's life.
func (c *Clock) release(id uint32) {
	n := &c.nodes[id]
	n.fn = nil
	n.loc = locFree
	n.next = c.free
	c.free = id
	c.nFree++
}

// At schedules fn to run at absolute time at. Scheduling in the past (before
// Now) panics: it would silently reorder causality.
func (c *Clock) At(at Time, fn func()) Event {
	if at < c.now {
		panic(fmt.Sprintf("simtime: scheduling event at %v before now %v", at, c.now))
	}
	c.seq++
	id := c.alloc(at, fn)
	if int64(at)>>granBits-c.baseTick < wheelSlots {
		c.wheelAdd(id)
	} else {
		c.heapPush(id)
	}
	return Event{idx: id, gen: c.nodes[id].gen}
}

// After schedules fn to run d nanoseconds from now.
func (c *Clock) After(d Duration, fn func()) Event {
	if d < 0 {
		panic(fmt.Sprintf("simtime: negative delay %v", d))
	}
	return c.At(c.now+d, fn)
}

// Cancel removes a pending event. Cancelling the zero handle, or an event
// that already fired or was already cancelled, is a no-op reporting false.
func (c *Clock) Cancel(e Event) bool {
	if e.idx == 0 || int(e.idx) >= len(c.nodes) {
		return false
	}
	n := &c.nodes[e.idx]
	if n.gen != e.gen || n.loc == locFree {
		return false
	}
	if n.loc == locOverflow {
		c.heapRemove(int(n.hpos))
	} else {
		c.wheelRemove(e.idx)
	}
	c.release(e.idx)
	return true
}

// Step dispatches the earliest pending event, advancing time to its
// deadline. It reports false when the queue is empty.
func (c *Clock) Step() bool { return c.step(Infinity) }

// SetObserver installs fn to run after every dispatched event (nil removes
// it). The observer must not schedule events or mutate simulation state —
// it exists for after-each-event assertions (faults.InvariantChecker) and
// must leave a run bit-identical to one without it.
func (c *Clock) SetObserver(fn func()) { c.observer = fn }

// Run dispatches events until the queue drains or virtual time would exceed
// horizon. It returns the time of the last dispatched event.
func (c *Clock) Run(horizon Time) Time {
	for c.step(horizon) {
	}
	return c.now
}

// RunUntil dispatches events while pred returns false, stopping at horizon.
// It reports whether pred became true.
func (c *Clock) RunUntil(horizon Time, pred func() bool) bool {
	for !pred() {
		if !c.step(horizon) {
			return false
		}
	}
	return true
}

// step dispatches the earliest pending event if its deadline is at or
// before horizon, reporting whether it did. Step, Run and RunUntil all go
// through it, so each dispatch costs one wheel scan.
//
// Two invariants hold between events. First, baseTick <= tick(now), so
// every deadline At accepts (at >= now) lies at or after the scan start.
// The window therefore moves only on a hit, to the dispatched event's
// tick. Moving it on a miss would let a later At earlier than the missed
// head land behind the scan start and dispatch out of order; the same
// holds for the wheel-drained jump to the overflow root. Second, every
// overflow event lies beyond the window, so the wheel head is the global
// minimum; migrate restores this whenever the window moves.
func (c *Clock) step(horizon Time) bool {
	if c.nWheel == 0 {
		if len(c.heap) == 0 || c.nodes[c.heap[0]].at > horizon {
			return false
		}
		// Wheel drained: jump the window forward to the overflow minimum.
		c.baseTick = int64(c.nodes[c.heap[0]].at) >> granBits
		c.migrate()
	}
	s, d := c.scan()
	id := c.slots[s]
	n := &c.nodes[id]
	if n.at > horizon {
		return false
	}
	if n.at < c.now {
		panic("simtime: queue yielded event in the past")
	}
	c.wheelRemove(id)
	if d > 0 {
		c.baseTick += int64(d)
		c.migrate()
	}
	c.now = n.at
	c.nEvent++
	fn := n.fn
	c.release(id)
	fn()
	if c.observer != nil {
		c.observer()
	}
	return true
}

// migrate moves overflow events that now fall inside the wheel window into
// the wheel. Heap pops come out in (at, seq) order, so in-slot insertion
// stays O(1) amortised.
func (c *Clock) migrate() {
	for len(c.heap) > 0 {
		id := c.heap[0]
		if int64(c.nodes[id].at)>>granBits-c.baseTick >= wheelSlots {
			return
		}
		c.heapRemove(0)
		c.wheelAdd(id)
	}
}

// scan finds the first occupied wheel slot at or after the window base,
// returning the slot index and its distance in ticks from baseTick. Must
// only be called with nWheel > 0.
func (c *Clock) scan() (slot uint32, dist int) {
	start := uint32(c.baseTick) & wheelMask
	w := start >> 6
	word := c.bitmap[w] >> (start & 63) << (start & 63) // drop bits below start
	for i := 0; word == 0; i++ {
		if i == wheelWords {
			panic("simtime: wheel count positive but bitmap empty")
		}
		w = (w + 1) & (wheelWords - 1)
		word = c.bitmap[w]
	}
	s := w<<6 + uint32(bits.TrailingZeros64(word))
	return s, int((s - start) & wheelMask)
}

// wheelAdd links a pending node into its slot's circular list, keeping the
// list sorted by (at, seq). Distinct deadlines share slots (64 ns
// granularity), so a backwards walk from the tail finds the insertion
// point; monotonic streams append at the tail in O(1).
func (c *Clock) wheelAdd(id uint32) {
	n := &c.nodes[id]
	s := uint32(int64(n.at)>>granBits) & wheelMask
	n.loc = int32(s)
	c.nWheel++
	head := c.slots[s]
	if head == 0 {
		n.next = id
		n.prev = id
		c.slots[s] = id
		c.bitmap[s>>6] |= 1 << (s & 63)
		return
	}
	// Walk back from the tail past any later-ordered events.
	pos := c.nodes[head].prev // tail
	for {
		p := &c.nodes[pos]
		if p.at < n.at || (p.at == n.at && p.seq < n.seq) {
			break // insert after pos
		}
		if pos == head {
			c.slots[s] = id // n precedes everything: becomes head
			pos = p.prev
			break
		}
		pos = p.prev
	}
	p := &c.nodes[pos]
	n.prev = pos
	n.next = p.next
	c.nodes[p.next].prev = id
	p.next = id
}

// wheelRemove unlinks a node from its slot's circular list.
func (c *Clock) wheelRemove(id uint32) {
	n := &c.nodes[id]
	s := uint32(n.loc)
	c.nWheel--
	if n.next == id {
		c.slots[s] = 0
		c.bitmap[s>>6] &^= 1 << (s & 63)
		return
	}
	c.nodes[n.prev].next = n.next
	c.nodes[n.next].prev = n.prev
	if c.slots[s] == id {
		c.slots[s] = n.next
	}
}

// Overflow heap: 4-ary min-heap of node indices ordered by (at, seq), with
// each node tracking its position for O(log n) removal on Cancel.

func (c *Clock) heapLess(a, b uint32) bool {
	na, nb := &c.nodes[a], &c.nodes[b]
	if na.at != nb.at {
		return na.at < nb.at
	}
	return na.seq < nb.seq
}

func (c *Clock) heapPush(id uint32) {
	c.nodes[id].loc = locOverflow
	c.nodes[id].hpos = int32(len(c.heap))
	c.heap = append(c.heap, id)
	c.heapUp(len(c.heap) - 1)
}

// heapRemove deletes the element at heap position i.
func (c *Clock) heapRemove(i int) {
	last := len(c.heap) - 1
	if i != last {
		c.heap[i] = c.heap[last]
		c.nodes[c.heap[i]].hpos = int32(i)
	}
	c.heap = c.heap[:last]
	if i < last {
		c.heapDown(i)
		c.heapUp(i)
	}
}

func (c *Clock) heapUp(i int) {
	id := c.heap[i]
	for i > 0 {
		parent := (i - 1) / 4
		if !c.heapLess(id, c.heap[parent]) {
			break
		}
		c.heap[i] = c.heap[parent]
		c.nodes[c.heap[i]].hpos = int32(i)
		i = parent
	}
	c.heap[i] = id
	c.nodes[id].hpos = int32(i)
}

func (c *Clock) heapDown(i int) {
	id := c.heap[i]
	n := len(c.heap)
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		least := first
		end := first + 4
		if end > n {
			end = n
		}
		for k := first + 1; k < end; k++ {
			if c.heapLess(c.heap[k], c.heap[least]) {
				least = k
			}
		}
		if !c.heapLess(c.heap[least], id) {
			break
		}
		c.heap[i] = c.heap[least]
		c.nodes[c.heap[i]].hpos = int32(i)
		i = least
	}
	c.heap[i] = id
	c.nodes[id].hpos = int32(i)
}
