// Package policy hosts shared helpers for Skyloft scheduling policies. The
// actual policies live in subpackages (fifo, rr, cfs, eevdf, worksteal,
// shinjuku), each implementing the paper's Table 2 operations in a few
// hundred lines — the point of Table 4.
package policy

import (
	"skyloft/internal/fifo"
	"skyloft/internal/sched"
)

// Placer implements the standard wakeup placement: the last CPU if idle,
// otherwise any idle CPU, otherwise the task's last CPU; tasks that never
// ran are spread round-robin so a burst of spawns does not pile onto CPU 0.
type Placer struct {
	next int
}

// Pick selects a CPU for t given the per-CPU idle mask.
func (p *Placer) Pick(t *sched.Thread, idle []bool) int {
	if t.LastCPU >= 0 && t.LastCPU < len(idle) && idle[t.LastCPU] {
		return t.LastCPU
	}
	for i, ok := range idle {
		if ok {
			return i
		}
	}
	if t.LastCPU >= 0 && t.LastCPU < len(idle) {
		return t.LastCPU
	}
	cpu := p.next % len(idle)
	p.next++
	return cpu
}

// Deque is a per-CPU task runqueue: FIFO at the front, with PopBack for
// stealing and PushFront for requeueing at the head. It is a ring buffer
// (fifo.Ring), so every operation is O(1) and a queue in steady state
// allocates nothing.
type Deque struct {
	r fifo.Ring[*sched.Thread]
}

// PushBack appends t.
func (d *Deque) PushBack(t *sched.Thread) { d.r.PushBack(t) }

// PushFront prepends t.
func (d *Deque) PushFront(t *sched.Thread) { d.r.PushFront(t) }

// PopFront removes and returns the head, or nil.
func (d *Deque) PopFront() *sched.Thread {
	t, _ := d.r.PopFront()
	return t
}

// PopBack removes and returns the tail, or nil.
func (d *Deque) PopBack() *sched.Thread {
	t, _ := d.r.PopBack()
	return t
}

// Len reports the queue length.
func (d *Deque) Len() int { return d.r.Len() }

// ResetData returns t's policy-defined field as a zeroed *T, for a policy's
// TaskInit. The engine recycles thread descriptors and a recycled thread
// still carries the *T of its previous life, so that object is cleared in
// place; a new one is allocated only when t carries none (a fresh thread)
// or another policy's type.
func ResetData[T any](t *sched.Thread) *T {
	d, ok := t.PolData.(*T)
	if !ok || d == nil {
		d = new(T)
		t.PolData = d
		return d
	}
	var zero T
	*d = zero
	return d
}
