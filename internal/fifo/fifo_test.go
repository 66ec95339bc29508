package fifo

import (
	"testing"

	"skyloft/internal/rng"
)

// TestRingMatchesSliceModel drives a Ring and a plain slice deque with the
// same random mix of pushes and pops at both ends (growth, wrap-around and
// drain to empty included), compares every popped value and the length
// after each step, then drains both and compares what is left.
func TestRingMatchesSliceModel(t *testing.T) {
	r := rng.New(7)
	var q Ring[int]
	var model []int
	next := 0
	for step := 0; step < 20000; step++ {
		switch op := r.Intn(10); {
		case op < 3:
			q.PushBack(next)
			model = append(model, next)
			next++
		case op < 5:
			q.PushFront(next)
			model = append([]int{next}, model...)
			next++
		case op < 8:
			v, ok := q.PopFront()
			if ok != (len(model) > 0) {
				t.Fatalf("step %d: PopFront ok=%v with %d queued", step, ok, len(model))
			}
			if ok {
				if v != model[0] {
					t.Fatalf("step %d: PopFront = %d, want %d", step, v, model[0])
				}
				model = model[1:]
			}
		default:
			v, ok := q.PopBack()
			if ok != (len(model) > 0) {
				t.Fatalf("step %d: PopBack ok=%v with %d queued", step, ok, len(model))
			}
			if ok {
				if want := model[len(model)-1]; v != want {
					t.Fatalf("step %d: PopBack = %d, want %d", step, v, want)
				}
				model = model[:len(model)-1]
			}
		}
		if q.Len() != len(model) {
			t.Fatalf("step %d: Len = %d, want %d", step, q.Len(), len(model))
		}
	}
	for i, want := range model {
		if got, ok := q.PopFront(); !ok || got != want {
			t.Fatalf("drain %d: PopFront = %d, %v; want %d", i, got, ok, want)
		}
	}
	if _, ok := q.PopFront(); ok {
		t.Fatal("ring holds more elements than the model")
	}
}

// TestRingClearsPoppedSlots checks that popping drops the ring's reference
// to the element, so a queue never keeps a finished thread or packet alive.
func TestRingClearsPoppedSlots(t *testing.T) {
	var q Ring[*int]
	a, b, c := new(int), new(int), new(int)
	q.PushBack(a)
	q.PushBack(b)
	q.PushFront(c)
	q.PopFront()
	q.PopBack()
	q.PopFront()
	for i, p := range q.buf {
		if p != nil {
			t.Fatalf("slot %d still references a popped element", i)
		}
	}
}

// TestRingSteadyStateAllocs pins the point of the type: once the buffer
// has reached the queue's high-water mark, sliding and prepending allocate
// nothing.
func TestRingSteadyStateAllocs(t *testing.T) {
	var q Ring[int]
	for i := 0; i < 16; i++ {
		q.PushBack(i)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		q.PushBack(1)
		q.PushFront(2)
		q.PopFront()
		q.PopFront()
		q.PushBack(3)
		q.PopBack()
	})
	if allocs != 0 {
		t.Fatalf("steady-state ring cycle allocates %.1f objects, want 0", allocs)
	}
}
