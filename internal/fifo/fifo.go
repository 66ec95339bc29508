// Package fifo provides Ring, the growable ring buffer behind every
// simulator queue that slides: policy runqueues (policy.Deque), the
// waiter lists of the sched synchronisation primitives, and the netsim
// worker-pool ring and the NIC's in-flight queue.
//
// A slice used as a queue (q = q[1:] to pop, append to push) reallocates
// as it slides and keeps popped elements reachable until the next growth;
// a prepend copies the whole slice. Ring does neither: pushes and pops at
// both ends are O(1), popped slots are cleared at once, and the backing
// array only grows — to the queue's high-water mark — so a queue in steady
// state allocates nothing.
package fifo

// Ring is a double-ended queue over a power-of-two circular buffer. The
// zero value is an empty ring ready to use. Not safe for concurrent use.
type Ring[T any] struct {
	buf  []T // len(buf) is zero or a power of two
	head int // index of the front element
	n    int // number of queued elements
}

// minCap is the first allocation's size.
const minCap = 8

// Len reports the number of queued elements.
func (r *Ring[T]) Len() int { return r.n }

// PushBack appends v at the back.
func (r *Ring[T]) PushBack(v T) {
	if r.n == len(r.buf) {
		r.grow()
	}
	r.buf[(r.head+r.n)&(len(r.buf)-1)] = v
	r.n++
}

// PushFront prepends v at the front.
func (r *Ring[T]) PushFront(v T) {
	if r.n == len(r.buf) {
		r.grow()
	}
	r.head = (r.head - 1) & (len(r.buf) - 1)
	r.buf[r.head] = v
	r.n++
}

// PopFront removes and returns the front element; ok is false when the ring
// is empty.
func (r *Ring[T]) PopFront() (v T, ok bool) {
	if r.n == 0 {
		return v, false
	}
	var zero T
	v = r.buf[r.head]
	r.buf[r.head] = zero
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
	return v, true
}

// PopBack removes and returns the back element; ok is false when the ring
// is empty.
func (r *Ring[T]) PopBack() (v T, ok bool) {
	if r.n == 0 {
		return v, false
	}
	var zero T
	i := (r.head + r.n - 1) & (len(r.buf) - 1)
	v = r.buf[i]
	r.buf[i] = zero
	r.n--
	return v, true
}

// grow doubles the buffer, unwrapping the queued elements to its start.
func (r *Ring[T]) grow() {
	c := 2 * len(r.buf)
	if c == 0 {
		c = minCap
	}
	buf := make([]T, c)
	if r.n > 0 {
		k := copy(buf, r.buf[r.head:])
		copy(buf[k:], r.buf[:r.head])
	}
	r.buf = buf
	r.head = 0
}
