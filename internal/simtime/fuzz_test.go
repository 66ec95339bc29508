package simtime

import "testing"

// FuzzClock drives the timer-wheel Clock and the reference HeapClock with
// the same operation stream and fails on the first divergence in dispatch
// order, Now, Dispatched, Pending or an operation's result. Each input
// byte string decodes to top-level At/After, Cancel, Step and Run calls;
// two of every three Run horizons fall within a nanosecond of the next
// deadline, so runs that stop just short of the head, followed by
// schedules earlier than it, are common. Callbacks reschedule (At or
// After) and cancel on their own, so deadlines also come from inside
// dispatch. Delays take the four shapes the randomized differential test
// draws: dense 64 ns ties, the wheel range, the overflow range and far
// overflow.
func FuzzClock(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		w := &fuzzDriver[Event, *Clock]{c: NewClock()}
		h := &fuzzDriver[*HeapEvent, *HeapClock]{c: NewHeapClock()}
		in := fuzzInput(data)
		checked := 0
		for op := 0; len(in) > 0; op++ {
			kind := in.next() % 8
			var gotW, gotH any
			switch kind {
			case 0, 1: // top-level At (0) or After (1)
				d, spec := fuzzDelay(in.next(), in.u24()), in.u16()
				w.schedule(d, kind == 1, spec)
				h.schedule(d, kind == 1, spec)
			case 2, 3:
				if len(w.handles) == 0 {
					continue
				}
				i := int(in.u24()) % len(w.handles)
				gotW, gotH = w.c.Cancel(w.handles[i]), h.c.Cancel(h.handles[i])
			case 4:
				gotW, gotH = w.c.Step(), h.c.Step()
			case 5, 6: // a horizon just before, at or just after the next deadline
				if len(h.c.heap) == 0 {
					continue
				}
				horizon := h.c.heap[0].at - 1 + Time(in.next()%3)
				gotW, gotH = w.c.Run(horizon), h.c.Run(horizon)
			case 7:
				horizon := h.c.Now() + fuzzDelay(in.next(), in.u24())
				gotW, gotH = w.c.Run(horizon), h.c.Run(horizon)
			}
			if gotW != gotH {
				t.Fatalf("op %d (kind %d): wheel returned %v, heap %v", op, kind, gotW, gotH)
			}
			checked = compareDrivers(t, op, w, h, checked)
		}
		w.c.Run(Infinity)
		h.c.Run(Infinity)
		compareDrivers(t, -1, w, h, checked)
	})
}

// clockUnderTest is the surface FuzzClock drives on both clocks.
type clockUnderTest[E any] interface {
	At(at Time, fn func()) E
	After(d Duration, fn func()) E
	Cancel(e E) bool
	Step() bool
	Run(horizon Time) Time
	Now() Time
	Dispatched() uint64
	Pending() int
}

// fuzzDriver schedules on one clock and records the IDs of the events it
// dispatches. An event's ID is its index in handles, so both drivers
// number events alike as long as their clocks dispatch alike.
type fuzzDriver[E any, C clockUnderTest[E]] struct {
	c       C
	handles []E
	fired   []int
}

func (d *fuzzDriver[E, C]) schedule(delay Duration, after bool, spec uint16) {
	id := len(d.handles)
	fn := func() { d.fire(id, spec) }
	if after {
		d.handles = append(d.handles, d.c.After(delay, fn))
	} else {
		d.handles = append(d.handles, d.c.At(d.c.Now()+delay, fn))
	}
}

// fire records the event, then acts on its spec: bit 0 reschedules a
// child (bits 1–2 pick the delay shape, bit 3 After over At) and bit 4
// cancels an earlier handle. The child's spec is the parent's shifted
// right by 5, so chains end within four generations.
func (d *fuzzDriver[E, C]) fire(id int, spec uint16) {
	d.fired = append(d.fired, id)
	mix := uint32(id) * 2654435761
	if spec&1 != 0 {
		d.schedule(fuzzDelay(byte(spec>>1), mix>>8), spec&8 != 0, spec>>5)
	}
	if spec&16 != 0 {
		d.c.Cancel(d.handles[int(mix%uint32(len(d.handles)))])
	}
}

// compareDrivers fails unless both clocks agree on Now, Dispatched and
// Pending and dispatched the same events since index from; it returns
// the new count of checked dispatches.
func compareDrivers(t *testing.T, op int, w *fuzzDriver[Event, *Clock], h *fuzzDriver[*HeapEvent, *HeapClock], from int) int {
	t.Helper()
	if w.c.Now() != h.c.Now() || w.c.Dispatched() != h.c.Dispatched() || w.c.Pending() != h.c.Pending() {
		t.Fatalf("op %d: wheel now=%v dispatched=%d pending=%d; heap now=%v dispatched=%d pending=%d",
			op, w.c.Now(), w.c.Dispatched(), w.c.Pending(), h.c.Now(), h.c.Dispatched(), h.c.Pending())
	}
	if len(w.fired) != len(h.fired) {
		t.Fatalf("op %d: wheel fired %d events, heap %d", op, len(w.fired), len(h.fired))
	}
	for i := from; i < len(w.fired); i++ {
		if w.fired[i] != h.fired[i] {
			t.Fatalf("op %d: dispatch %d is event %d on the wheel, %d on the heap", op, i, w.fired[i], h.fired[i])
		}
	}
	return len(w.fired)
}

// fuzzDelay maps a shape selector and a raw value onto one of the four
// delay shapes: dense near-future ties on the 64 ns slot grid, the wheel
// range, the overflow range, and far overflow in whole milliseconds.
func fuzzDelay(shape byte, v uint32) Duration {
	switch shape % 4 {
	case 0:
		return Duration(v%4) * 64
	case 1:
		return Duration(v % 200_000)
	case 2:
		return 200_000 + Duration(v%2_000_000)
	default:
		return Duration(v%50) * Millisecond
	}
}

// fuzzInput reads little-endian values from the fuzz input, as zeros once
// it runs out.
type fuzzInput []byte

func (in *fuzzInput) next() byte {
	if len(*in) == 0 {
		return 0
	}
	b := (*in)[0]
	*in = (*in)[1:]
	return b
}

func (in *fuzzInput) u16() uint16 { return uint16(in.next()) | uint16(in.next())<<8 }

func (in *fuzzInput) u24() uint32 {
	return uint32(in.next()) | uint32(in.next())<<8 | uint32(in.next())<<16
}
