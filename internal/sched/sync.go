package sched

// Engine-independent synchronisation primitives built on Block/Wake. They
// correspond to the pthread-compatible APIs the Skyloft LibOS exposes
// (§2.4, Table 7): the cost of each operation is charged through
// Env.OpCost, so the same Mutex behaves like a pthread mutex on the Linux
// engine and like Skyloft's user-level mutex on the Skyloft engine.
//
// No Go-level locking is needed: the simulation is single-threaded by
// construction (strict coroutine handoff), so these are pure data
// structures; Block/Wake ordering supplies the synchronisation semantics.
// Waiter lists and queued items live in fifo.Ring buffers, so a primitive
// in steady use allocates nothing and keeps no popped thread reachable.

import "skyloft/internal/fifo"

// Mutex is a queueing mutual-exclusion lock.
type Mutex struct {
	owner   *Thread
	waiters fifo.Ring[*Thread]
}

// Lock acquires m, blocking the calling thread while another holds it.
func (m *Mutex) Lock(e Env) {
	if c := e.OpCost(OpMutex); c > 0 {
		e.Run(c)
	}
	self := e.Self()
	if m.owner == nil {
		m.owner = self
		return
	}
	if m.owner == self {
		panic("sched: recursive Mutex.Lock")
	}
	m.waiters.PushBack(self)
	for m.owner != self {
		e.Block()
	}
}

// Unlock releases m, handing it to the longest-waiting thread if any.
func (m *Mutex) Unlock(e Env) {
	if m.owner != e.Self() {
		panic("sched: Unlock of mutex not held by caller")
	}
	if c := e.OpCost(OpMutex); c > 0 {
		e.Run(c)
	}
	next, ok := m.waiters.PopFront()
	if !ok {
		m.owner = nil
		return
	}
	m.owner = next
	e.Wake(next)
}

// TryLock acquires m if free and reports whether it did.
func (m *Mutex) TryLock(e Env) bool {
	if c := e.OpCost(OpMutex); c > 0 {
		e.Run(c)
	}
	if m.owner != nil {
		return false
	}
	m.owner = e.Self()
	return true
}

// Locked reports whether the mutex is currently held.
func (m *Mutex) Locked() bool { return m.owner != nil }

// Cond is a condition variable used with a Mutex.
type Cond struct {
	waiters fifo.Ring[*Thread]
}

// Wait atomically releases mu and parks the caller until Signal/Broadcast,
// then reacquires mu before returning.
func (c *Cond) Wait(e Env, mu *Mutex) {
	if cost := e.OpCost(OpCondvar); cost > 0 {
		e.Run(cost)
	}
	self := e.Self()
	c.waiters.PushBack(self)
	mu.Unlock(e)
	e.Block()
	mu.Lock(e)
}

// Signal wakes one waiter, if any.
func (c *Cond) Signal(e Env) {
	if cost := e.OpCost(OpCondvar); cost > 0 {
		e.Run(cost)
	}
	if t, ok := c.waiters.PopFront(); ok {
		e.Wake(t)
	}
}

// Broadcast wakes all threads waiting when it is called. A Wake may
// suspend the caller; threads that start waiting meanwhile stay queued for
// the next Signal or Broadcast.
func (c *Cond) Broadcast(e Env) {
	if cost := e.OpCost(OpCondvar); cost > 0 {
		e.Run(cost)
	}
	for n := c.waiters.Len(); n > 0; n-- {
		t, _ := c.waiters.PopFront()
		e.Wake(t)
	}
}

// NWaiters reports how many threads are parked on c.
func (c *Cond) NWaiters() int { return c.waiters.Len() }

// WaitGroup counts outstanding work, like sync.WaitGroup.
type WaitGroup struct {
	count   int
	waiters []*Thread
}

// Add adjusts the counter by delta, waking waiters when it reaches zero.
func (w *WaitGroup) Add(e Env, delta int) {
	w.count += delta
	if w.count < 0 {
		panic("sched: negative WaitGroup counter")
	}
	if w.count == 0 {
		for _, t := range w.waiters {
			e.Wake(t)
		}
		w.waiters = nil
	}
}

// Done decrements the counter by one.
func (w *WaitGroup) Done(e Env) { w.Add(e, -1) }

// Wait parks the caller until the counter reaches zero.
func (w *WaitGroup) Wait(e Env) {
	for w.count > 0 {
		w.waiters = append(w.waiters, e.Self())
		e.Block()
	}
}

// Queue is an unbounded FIFO of opaque items with blocking Pop — the shared
// ring abstraction used by the network stack and dispatcher mailboxes.
type Queue struct {
	items   fifo.Ring[any]
	waiters fifo.Ring[*Thread]
}

// Push appends an item and wakes one blocked consumer.
func (q *Queue) Push(e Env, v any) {
	q.items.PushBack(v)
	if t, ok := q.waiters.PopFront(); ok {
		e.Wake(t)
	}
}

// TryPop removes the head item without blocking.
func (q *Queue) TryPop() (any, bool) { return q.items.PopFront() }

// Pop removes the head item, blocking while the queue is empty.
func (q *Queue) Pop(e Env) any {
	for {
		if v, ok := q.TryPop(); ok {
			return v
		}
		q.waiters.PushBack(e.Self())
		e.Block()
	}
}

// Len reports the number of queued items.
func (q *Queue) Len() int { return q.items.Len() }
