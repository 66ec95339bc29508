// Package shm models the shared-memory segment Skyloft maps into every
// application (§4.1): application metadata, the shared runqueues, and a
// memory pool for the task structures whose scheduling-relevant fields must
// be visible to all applications no matter which one is running.
package shm

import "fmt"

// AppMeta is one application's entry in the shared registry.
type AppMeta struct {
	ID   int
	Name string
	// KThreadTIDs[core] is the tid of the app's kernel thread bound to
	// that isolated core — what other applications use to wake it.
	KThreadTIDs map[int]int
	// Exited marks completed applications.
	Exited bool
}

// Segment is the shared-memory segment.
type Segment struct {
	apps []*AppMeta
	pool *Pool
}

// NewSegment creates a segment whose task pool holds up to poolCap task
// metadata slots.
func NewSegment(poolCap int) *Segment {
	return &Segment{pool: NewPool(poolCap)}
}

// RegisterApp adds an application to the shared registry and returns its
// metadata record.
func (s *Segment) RegisterApp(name string) *AppMeta {
	a := &AppMeta{ID: len(s.apps), Name: name, KThreadTIDs: make(map[int]int)}
	s.apps = append(s.apps, a)
	return a
}

// App looks up an application by ID.
func (s *Segment) App(id int) *AppMeta {
	if id < 0 || id >= len(s.apps) {
		return nil
	}
	return s.apps[id]
}

// Apps reports the number of registered applications.
func (s *Segment) Apps() int { return len(s.apps) }

// Pool reports the shared task-metadata pool.
func (s *Segment) Pool() *Pool { return s.pool }

// Pool is a fixed-capacity slot allocator with a free list, standing in for
// the shared memory pool that backs task structures. Slot indices are
// stable handles valid across "applications".
type Pool struct {
	slots []any
	free  []int32
	inUse int
	high  int // high-water mark of simultaneous allocations
}

// NewPool creates a pool with the given capacity.
func NewPool(capacity int) *Pool {
	if capacity <= 0 {
		panic("shm: pool capacity must be positive")
	}
	p := &Pool{slots: make([]any, capacity), free: make([]int32, 0, capacity)}
	for i := capacity - 1; i >= 0; i-- {
		p.free = append(p.free, int32(i))
	}
	return p
}

// Alloc takes a slot, stores v in it, and returns the slot handle. It
// returns -1 when the pool is exhausted.
func (p *Pool) Alloc(v any) int32 {
	if len(p.free) == 0 {
		return -1
	}
	idx := p.free[len(p.free)-1]
	p.free = p.free[:len(p.free)-1]
	p.slots[idx] = v
	p.inUse++
	if p.inUse > p.high {
		p.high = p.inUse
	}
	return idx
}

// Get returns the value in slot idx.
func (p *Pool) Get(idx int32) any {
	p.check(idx)
	return p.slots[idx]
}

// Free releases slot idx back to the pool.
func (p *Pool) Free(idx int32) {
	p.check(idx)
	if p.slots[idx] == nil {
		panic(fmt.Sprintf("shm: double free of slot %d", idx))
	}
	p.slots[idx] = nil
	p.free = append(p.free, idx)
	p.inUse--
}

// InUse reports currently allocated slots; HighWater the maximum ever.
func (p *Pool) InUse() int     { return p.inUse }
func (p *Pool) HighWater() int { return p.high }

func (p *Pool) check(idx int32) {
	if idx < 0 || int(idx) >= len(p.slots) {
		panic(fmt.Sprintf("shm: slot %d out of range [0,%d)", idx, len(p.slots)))
	}
}
