package sched

import (
	"testing"

	"skyloft/internal/rng"
	"skyloft/internal/simtime"
)

// mockEnv drives the synchronisation primitives without a full engine: a
// round-robin executor over simple coroutine-free bodies is unnecessary —
// the primitives only need Self/Block/Wake/Run semantics, which we emulate
// with an explicit ready list.
type mockEnv struct {
	now     simtime.Time
	self    *Thread
	ready   []*Thread
	blocked map[*Thread]bool
	r       *rng.Rand
}

func newMockEnv() *mockEnv {
	return &mockEnv{blocked: make(map[*Thread]bool), r: rng.New(1)}
}

func (m *mockEnv) Now() simtime.Time { return m.now }
func (m *mockEnv) Self() *Thread     { return m.self }
func (m *mockEnv) Rand() *rng.Rand   { return m.r }
func (m *mockEnv) Run(d simtime.Duration) {
	m.now += d
	m.self.CPUTime += d
}
func (m *mockEnv) Yield() {}
func (m *mockEnv) Block() {
	// In the mock, Block panics unless a wake is pending — tests that
	// exercise real blocking use the engines' integration tests instead.
	if m.self.WakePending {
		m.self.WakePending = false
		return
	}
	m.blocked[m.self] = true
	panic(blockSentinel{m.self})
}
func (m *mockEnv) Sleep(d simtime.Duration) { m.now += d }
func (m *mockEnv) IO(d simtime.Duration)    { m.now += d }
func (m *mockEnv) Fault(d simtime.Duration) { m.now += d }
func (m *mockEnv) Spawn(name string, body Func) *Thread {
	t := &Thread{ID: len(m.ready) + 100, Name: name}
	return t
}
func (m *mockEnv) Wake(t *Thread) {
	if m.blocked[t] {
		delete(m.blocked, t)
		m.ready = append(m.ready, t)
		return
	}
	t.WakePending = true
}
func (m *mockEnv) OpCost(op Op) simtime.Duration { return simtime.Duration(op) + 1 }

type blockSentinel struct{ t *Thread }

// call runs fn as thread t, catching the mock's block sentinel. It reports
// whether the body blocked.
func (m *mockEnv) call(t *Thread, fn func()) (blocked bool) {
	prev := m.self
	m.self = t
	defer func() {
		m.self = prev
		if r := recover(); r != nil {
			if _, ok := r.(blockSentinel); ok {
				blocked = true
				return
			}
			panic(r)
		}
	}()
	fn()
	return false
}

func TestMutexUncontended(t *testing.T) {
	m := newMockEnv()
	a := &Thread{ID: 1}
	var mu Mutex
	if m.call(a, func() { mu.Lock(m); mu.Unlock(m) }) {
		t.Fatal("uncontended lock blocked")
	}
	if mu.Locked() {
		t.Fatal("mutex still held")
	}
}

func TestMutexContentionHandoff(t *testing.T) {
	m := newMockEnv()
	a, b := &Thread{ID: 1}, &Thread{ID: 2}
	var mu Mutex
	m.call(a, func() { mu.Lock(m) })
	if !m.call(b, func() { mu.Lock(m) }) {
		t.Fatal("contended lock did not block")
	}
	// a unlocks: ownership hands directly to b and wakes it.
	m.call(a, func() { mu.Unlock(m) })
	if len(m.ready) != 1 || m.ready[0] != b {
		t.Fatal("unlock did not wake the waiter")
	}
	if !mu.Locked() {
		t.Fatal("handoff lost ownership")
	}
	// b resumes inside Lock's loop: owner is already b, so it returns.
	if m.call(b, func() {
		if mu.owner != b {
			t.Error("owner not transferred")
		}
	}) {
		t.Fatal("unexpected block")
	}
}

func TestMutexTryLock(t *testing.T) {
	m := newMockEnv()
	a, b := &Thread{ID: 1}, &Thread{ID: 2}
	var mu Mutex
	m.call(a, func() {
		if !mu.TryLock(m) {
			t.Error("TryLock on free mutex failed")
		}
	})
	m.call(b, func() {
		if mu.TryLock(m) {
			t.Error("TryLock on held mutex succeeded")
		}
	})
}

func TestMutexRecursivePanics(t *testing.T) {
	m := newMockEnv()
	a := &Thread{ID: 1}
	var mu Mutex
	defer func() {
		if recover() == nil {
			t.Error("recursive lock did not panic")
		}
	}()
	m.call(a, func() { mu.Lock(m); mu.Lock(m) })
}

func TestUnlockNotOwnerPanics(t *testing.T) {
	m := newMockEnv()
	a, b := &Thread{ID: 1}, &Thread{ID: 2}
	var mu Mutex
	m.call(a, func() { mu.Lock(m) })
	defer func() {
		if recover() == nil {
			t.Error("unlock by non-owner did not panic")
		}
	}()
	m.call(b, func() { mu.Unlock(m) })
}

// waitOn parks each thread on cv through the public API: lock mu, then
// Wait (which releases mu and blocks in the mock).
func waitOn(t *testing.T, m *mockEnv, cv *Cond, mu *Mutex, ths ...*Thread) {
	t.Helper()
	for _, th := range ths {
		if !m.call(th, func() { mu.Lock(m); cv.Wait(m, mu) }) {
			t.Fatalf("thread %d: Wait did not block", th.ID)
		}
	}
}

func TestCondSignalOrder(t *testing.T) {
	m := newMockEnv()
	var cv Cond
	var mu Mutex
	a, b := &Thread{ID: 1}, &Thread{ID: 2}
	waitOn(t, m, &cv, &mu, a, b)
	if cv.NWaiters() != 2 {
		t.Fatalf("NWaiters = %d, want 2", cv.NWaiters())
	}
	m.call(&Thread{ID: 3}, func() { cv.Signal(m) })
	if len(m.ready) != 1 || m.ready[0] != a || cv.NWaiters() != 1 {
		t.Fatal("Signal should wake exactly the longest waiter")
	}
	m.call(&Thread{ID: 3}, func() { cv.Signal(m) })
	if len(m.ready) != 2 || m.ready[1] != b || cv.NWaiters() != 0 {
		t.Fatal("FIFO signal order broken")
	}
	// Signal with no waiters is a no-op.
	m.call(&Thread{ID: 3}, func() { cv.Signal(m) })
	if len(m.ready) != 2 {
		t.Fatal("Signal on an empty Cond woke someone")
	}
}

func TestCondBroadcast(t *testing.T) {
	m := newMockEnv()
	var cv Cond
	var mu Mutex
	ths := []*Thread{{ID: 1}, {ID: 2}, {ID: 3}}
	waitOn(t, m, &cv, &mu, ths...)
	m.call(&Thread{ID: 9}, func() { cv.Broadcast(m) })
	if cv.NWaiters() != 0 {
		t.Fatal("Broadcast left waiters")
	}
	if len(m.ready) != len(ths) {
		t.Fatalf("Broadcast woke %d of %d", len(m.ready), len(ths))
	}
	for i, th := range ths {
		if m.ready[i] != th {
			t.Fatalf("Broadcast wake %d = thread %d, want %d", i, m.ready[i].ID, th.ID)
		}
	}
}

func TestWaitGroupZeroNoBlock(t *testing.T) {
	m := newMockEnv()
	var wg WaitGroup
	if m.call(&Thread{ID: 1}, func() { wg.Wait(m) }) {
		t.Fatal("Wait on zero counter blocked")
	}
}

func TestWaitGroupNegativePanics(t *testing.T) {
	m := newMockEnv()
	var wg WaitGroup
	defer func() {
		if recover() == nil {
			t.Error("negative WaitGroup did not panic")
		}
	}()
	m.call(&Thread{ID: 1}, func() { wg.Done(m) })
}

func TestQueueFIFOAndWake(t *testing.T) {
	m := newMockEnv()
	var q Queue
	a := &Thread{ID: 1}
	if !m.call(a, func() { q.Pop(m) }) {
		t.Fatal("Pop on empty queue did not block")
	}
	m.call(&Thread{ID: 2}, func() { q.Push(m, "x"); q.Push(m, "y") })
	if len(m.ready) != 1 || m.ready[0] != a {
		t.Fatal("Push did not wake the blocked consumer")
	}
	if v, ok := q.TryPop(); !ok || v != "x" {
		t.Fatal("queue order broken")
	}
	if q.Len() != 1 {
		t.Fatalf("Len = %d", q.Len())
	}
}

func TestThreadStateString(t *testing.T) {
	for s := Created; s <= Exited; s++ {
		if s.String() == "" {
			t.Fatalf("state %d has empty name", s)
		}
	}
	th := &Thread{ID: 7, Name: "w", State: Running}
	if th.String() != "w#7(running)" {
		t.Fatalf("Thread.String() = %q", th.String())
	}
}
