package simtime

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestClockOrdering(t *testing.T) {
	c := NewClock()
	var got []Time
	for _, at := range []Time{50, 10, 30, 20, 40} {
		c.At(at, func() { got = append(got, c.Now()) })
	}
	for c.Step() {
	}
	want := []Time{10, 20, 30, 40, 50}
	if len(got) != len(want) {
		t.Fatalf("dispatched %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("event %d at %v, want %v", i, got[i], want[i])
		}
	}
}

func TestClockFIFOTieBreak(t *testing.T) {
	c := NewClock()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		c.At(100, func() { order = append(order, i) })
	}
	for c.Step() {
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("same-deadline events fired out of order: %v", order)
		}
	}
}

func TestClockCancel(t *testing.T) {
	c := NewClock()
	fired := false
	e := c.At(10, func() { fired = true })
	if !c.Cancel(e) {
		t.Fatal("Cancel returned false for pending event")
	}
	if c.Cancel(e) {
		t.Fatal("second Cancel returned true")
	}
	if c.Cancel(Event{}) {
		t.Fatal("Cancel of zero handle returned true")
	}
	for c.Step() {
	}
	if fired {
		t.Fatal("cancelled event fired")
	}
}

// A handle to a fired event must stay dead even after its store slot is
// recycled by later schedules (the generation check).
func TestClockStaleCancelAfterReuse(t *testing.T) {
	c := NewClock()
	stale := c.At(10, func() {})
	if !c.Step() {
		t.Fatal("no event to fire")
	}
	fresh := c.At(20, func() {})
	if c.Cancel(stale) {
		t.Fatal("Cancel of fired event returned true after slot reuse")
	}
	if c.Pending() != 1 {
		t.Fatalf("stale Cancel disturbed the queue: pending=%d", c.Pending())
	}
	if !c.Cancel(fresh) {
		t.Fatal("Cancel of live event returned false")
	}
}

func TestClockCancelMiddleOfQueue(t *testing.T) {
	c := NewClock()
	var events []Event
	var fired []Time
	for i := 1; i <= 20; i++ {
		// Spread across wheel and overflow: half near, half far.
		at := Time(i * 10)
		if i%2 == 0 {
			at = Time(i) * Millisecond
		}
		events = append(events, c.At(at, func() { fired = append(fired, c.Now()) }))
	}
	// Cancel every third event.
	for i := 0; i < len(events); i += 3 {
		c.Cancel(events[i])
	}
	for c.Step() {
	}
	if !sort.SliceIsSorted(fired, func(i, j int) bool { return fired[i] < fired[j] }) {
		t.Fatalf("events fired out of order after cancellations: %v", fired)
	}
	if len(fired) != 13 {
		t.Fatalf("fired %d events, want 13", len(fired))
	}
}

func TestClockAfterChaining(t *testing.T) {
	c := NewClock()
	var trace []Time
	var step func()
	step = func() {
		trace = append(trace, c.Now())
		if len(trace) < 5 {
			c.After(7, step)
		}
	}
	c.After(7, step)
	for c.Step() {
	}
	for i, at := range trace {
		if want := Time(7 * (i + 1)); at != want {
			t.Errorf("chain step %d at %v, want %v", i, at, want)
		}
	}
}

func TestClockPastPanics(t *testing.T) {
	c := NewClock()
	c.At(100, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		c.At(50, func() {})
	})
	for c.Step() {
	}
}

func TestRunHorizon(t *testing.T) {
	c := NewClock()
	var fired []Time
	for _, at := range []Time{10, 20, 30, 40} {
		at := at
		c.At(at, func() { fired = append(fired, at) })
	}
	c.Run(25)
	if len(fired) != 2 {
		t.Fatalf("Run(25) fired %d events, want 2", len(fired))
	}
	if c.Pending() != 2 {
		t.Fatalf("pending = %d, want 2", c.Pending())
	}
	for _, m := range missCases {
		checkMissKeepsWindow(t, m, func(c *Clock, horizon Time) { c.Run(horizon) })
	}
}

// missCases stop a run short of the earliest event, then schedule one due
// before it: once with that event at the wheel head, once as the overflow
// root of an empty wheel. A run that moved the wheel window on the miss
// would dispatch the later event first.
type missCase struct{ head, horizon, early Time }

var missCases = []missCase{
	{100 * Microsecond, 10, 50},
	{10 * Millisecond, Millisecond, 2 * Millisecond},
}

func checkMissKeepsWindow(t *testing.T, m missCase, run func(*Clock, Time)) {
	t.Helper()
	c := NewClock()
	var fired []Time
	record := func() { fired = append(fired, c.Now()) }
	c.At(m.head, record)
	run(c, m.horizon)
	if len(fired) != 0 || c.Now() != 0 {
		t.Fatalf("head %v: run to %v fired %v, now %v; want nothing, now 0", m.head, m.horizon, fired, c.Now())
	}
	c.At(m.early, record)
	for c.Step() {
	}
	if len(fired) != 2 || fired[0] != m.early || fired[1] != m.head {
		t.Fatalf("head %v missed at %v, then At(%v): fired %v, want [%v %v]", m.head, m.horizon, m.early, fired, m.early, m.head)
	}
}

func TestRunUntil(t *testing.T) {
	c := NewClock()
	count := 0
	for i := 1; i <= 10; i++ {
		c.At(Time(i), func() { count++ })
	}
	ok := c.RunUntil(Infinity, func() bool { return count >= 4 })
	if !ok || count != 4 {
		t.Fatalf("RunUntil stopped at count=%d ok=%v, want 4/true", count, ok)
	}
	if c.RunUntil(5, func() bool { return count >= 100 }) {
		t.Fatal("RunUntil reported success past horizon")
	}
	for _, m := range missCases {
		checkMissKeepsWindow(t, m, func(c *Clock, horizon Time) {
			if c.RunUntil(horizon, func() bool { return false }) {
				t.Fatal("RunUntil reported success with nothing due")
			}
		})
	}
}

// Far-future events must sit in the overflow heap and still dispatch in
// exact order as the wheel window catches up to them.
func TestClockOverflowMigration(t *testing.T) {
	c := NewClock()
	var got []Time
	deadlines := []Time{
		5, 100, 300 * Microsecond, 263 * Microsecond, 10 * Millisecond,
		262143, 262144, 262145, // straddle the initial wheel window edge
		Second, 90, 500 * Microsecond,
	}
	for _, at := range deadlines {
		c.At(at, func() { got = append(got, c.Now()) })
	}
	if c.Pending() != len(deadlines) {
		t.Fatalf("pending=%d want %d", c.Pending(), len(deadlines))
	}
	for c.Step() {
	}
	want := append([]Time(nil), deadlines...)
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	if len(got) != len(want) {
		t.Fatalf("fired %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("dispatch %d at %v, want %v (full: %v)", i, got[i], want[i], got)
		}
	}
}

// The pooled store must recycle fired and cancelled events: its size is
// bounded by the high-water mark of pending events, not total throughput.
func TestClockStoreRecycles(t *testing.T) {
	c := NewClock()
	var rearm func()
	n := 0
	rearm = func() {
		if n++; n < 10000 {
			c.After(100, rearm)
		}
	}
	c.After(100, rearm)
	e := c.After(50*Millisecond, func() {})
	c.Cancel(e)
	for c.Step() {
	}
	if c.StoreSize() > 8 {
		t.Fatalf("store grew to %d slots for 1-pending workload", c.StoreSize())
	}
	if c.StoreSize()-c.StoreFree() != c.Pending() {
		t.Fatalf("store leak: size=%d free=%d pending=%d",
			c.StoreSize(), c.StoreFree(), c.Pending())
	}
}

// Property: the event queue is a faithful priority queue — any random mix of
// schedules and cancels dispatches the surviving events in (time, insertion)
// order.
func TestQuickOrdering(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		r := rand.New(rand.NewSource(seed))
		c := NewClock()
		type rec struct {
			at  Time
			seq int
		}
		var want []rec
		var fired []rec
		var events []Event
		var recs []rec
		count := int(n%64) + 1
		for i := 0; i < count; i++ {
			at := Time(r.Intn(1000))
			rc := rec{at: at, seq: i}
			ev := c.At(at, func() { fired = append(fired, rc) })
			events = append(events, ev)
			recs = append(recs, rc)
		}
		cancelled := map[int]bool{}
		for i := 0; i < count/3; i++ {
			k := r.Intn(count)
			if c.Cancel(events[k]) {
				cancelled[k] = true
			}
		}
		for i, rc := range recs {
			if !cancelled[i] {
				want = append(want, rc)
			}
		}
		sort.SliceStable(want, func(i, j int) bool {
			if want[i].at != want[j].at {
				return want[i].at < want[j].at
			}
			return want[i].seq < want[j].seq
		})
		for c.Step() {
		}
		if len(fired) != len(want) {
			return false
		}
		for i := range want {
			if fired[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Differential property test: on randomized workloads of At/After/Cancel —
// including chained reschedules from inside callbacks, deadlines spanning
// wheel and overflow, and dense ties — the timer-wheel Clock dispatches the
// exact same event sequence as the reference binary-heap HeapClock.
func TestQuickWheelMatchesHeap(t *testing.T) {
	f := func(seed int64) bool {
		run := func(sched func(at Time, fn func()) func() bool, step func() bool, now func() Time) []int64 {
			r := rand.New(rand.NewSource(seed))
			var order []int64
			var cancels []func() bool
			id := int64(0)
			randomAt := func() Time {
				switch r.Intn(4) {
				case 0: // dense near-future ties
					return now() + Time(r.Intn(4)*64)
				case 1: // wheel range
					return now() + Time(r.Intn(200_000))
				case 2: // overflow range
					return now() + Time(200_000+r.Intn(2_000_000))
				default: // far overflow
					return now() + Time(r.Intn(50))*Millisecond
				}
			}
			var fire func(myID int64, depth int) func()
			fire = func(myID int64, depth int) func() {
				return func() {
					order = append(order, myID)
					if depth < 3 && r.Intn(2) == 0 {
						// Reschedule from inside a callback.
						id++
						cancels = append(cancels, sched(randomAt(), fire(id, depth+1)))
					}
					if len(cancels) > 0 && r.Intn(3) == 0 {
						cancels[r.Intn(len(cancels))]()
					}
				}
			}
			for i := 0; i < 40; i++ {
				id++
				cancels = append(cancels, sched(randomAt(), fire(id, 0)))
			}
			for i := 0; i < 8; i++ {
				cancels[r.Intn(len(cancels))]()
			}
			steps := 0
			for step() && steps < 500 {
				steps++
			}
			return order
		}

		wc := NewClock()
		wheelOrder := run(func(at Time, fn func()) func() bool {
			e := wc.At(at, fn)
			return func() bool { return wc.Cancel(e) }
		}, wc.Step, wc.Now)

		hc := NewHeapClock()
		heapOrder := run(func(at Time, fn func()) func() bool {
			e := hc.At(at, fn)
			return func() bool { return hc.Cancel(e) }
		}, hc.Step, hc.Now)

		if len(wheelOrder) != len(heapOrder) {
			t.Logf("seed %d: wheel fired %d, heap fired %d", seed, len(wheelOrder), len(heapOrder))
			return false
		}
		for i := range wheelOrder {
			if wheelOrder[i] != heapOrder[i] {
				t.Logf("seed %d: divergence at %d: wheel=%d heap=%d", seed, i, wheelOrder[i], heapOrder[i])
				return false
			}
		}
		return wc.Dispatched() == hc.Dispatched()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestTimeString(t *testing.T) {
	cases := []struct {
		t    Time
		want string
	}{
		{500, "500ns"},
		{1500, "1.500us"},
		{2500000, "2.500ms"},
		{3 * Second, "3.000s"},
	}
	for _, c := range cases {
		if got := c.t.String(); got != c.want {
			t.Errorf("%d.String() = %q, want %q", int64(c.t), got, c.want)
		}
	}
}
