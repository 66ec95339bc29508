// Package proc implements deterministic simulated threads on top of Go's
// runtime coroutines (iter.Pull). A P is a coroutine: exactly one P (or the
// simulation driver) executes at any instant, and control passes between
// them by a direct coroutine switch that never goes through the Go
// scheduler, so simulations stay fully deterministic regardless of
// GOMAXPROCS. Application code written against P reads like ordinary
// sequential thread code — it "runs" on the simulated machine by issuing
// requests (run for d, block, wake x) that the hosting scheduler engine
// services in virtual time.
package proc

import (
	"fmt"
	"iter"
)

// Request is an operation a simulated thread asks its engine to perform.
// Engines define their own request types; proc treats them opaquely.
type Request any

// ExitRequest is delivered to the engine when the thread's body returns.
type ExitRequest struct{}

// P is one simulated thread backed by a runtime coroutine. The coroutine
// survives the thread body: after the body returns (or the P is killed) it
// parks waiting for the next life, so a Pool can reuse it for a later
// thread — thread-per-request workloads create millions of short-lived
// threads, and creating a coroutine per thread would be the dominant
// allocation of the whole simulator.
type P struct {
	name  string
	body  func(*Ctx)
	ctx   Ctx
	resp  any // engine -> thread: response to the last request
	next  func() (Request, bool)
	stop  func()
	yield func(Request) bool // thread -> engine: set once the coroutine runs

	started bool
	done    bool
	killed  bool
}

// killSentinel unwinds a killed thread's body; the coroutine also yields it
// back to Kill once the body has unwound.
type killSentinel struct{}

// New creates a simulated thread that will execute body. The body does not
// start until the first Resume.
func New(name string, body func(*Ctx)) *P {
	p := newP()
	p.name, p.body = name, body
	return p
}

func newP() *P {
	p := &P{}
	p.ctx.p = p
	p.next, p.stop = iter.Pull(p.loop)
	return p
}

// loop runs thread lives: each iteration is entered by the first Resume of
// a life, executes the body, reports exit (or, if killed, hands control
// back to Kill), and parks for possible reuse. A false yield means Stop.
func (p *P) loop(yield func(Request) bool) {
	p.yield = yield
	for {
		var parked Request = killSentinel{}
		if p.runBody() {
			p.done = true
			parked = ExitRequest{}
		}
		if !yield(parked) {
			return
		}
	}
}

// runBody executes the current body, absorbing the kill unwind. Any other
// panic propagates out of the coroutine and re-panics from Resume, in the
// engine's goroutine.
func (p *P) runBody() (completed bool) {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(killSentinel); ok {
				return // killed by engine; completed stays false
			}
			panic(r) // real bug in thread body: propagate
		}
	}()
	p.body(&p.ctx)
	return true
}

// Name reports the thread's debug name.
func (p *P) Name() string { return p.name }

// Done reports whether the thread body has returned.
func (p *P) Done() bool { return p.done }

// Resume runs the thread until it issues its next request, passing v as the
// response to the previous request (ignored on first resume). It returns
// the new request; ExitRequest{} means the body returned. Resume panics if
// called on a finished or killed thread, and re-panics with the original
// value if the body itself panics.
func (p *P) Resume(v any) Request {
	if p.done || p.killed {
		panic(fmt.Sprintf("proc: Resume on finished thread %q", p.name))
	}
	p.started = true
	p.resp = v
	r, _ := p.next()
	return r
}

// Kill terminates a parked (or never-started) thread's body. It is a no-op
// for finished or already-killed threads. The engine must only call Kill
// while the thread is parked, which always holds because only one side
// runs at a time. A started thread's body unwinds (running its defers)
// before Kill returns; a never-started one is simply marked. Either way the
// coroutine survives, parked for reuse.
func (p *P) Kill() {
	if p.done || p.killed {
		return
	}
	p.killed = true
	if p.started {
		p.next() // Ask panics killSentinel; the coroutine yields it back
	}
}

// Stop permanently ends a finished or killed P's coroutine. Pools call it
// when draining; a P that is neither pooled nor stopped keeps one parked
// coroutine until process exit.
func (p *P) Stop() {
	if !p.done && !p.killed {
		panic(fmt.Sprintf("proc: Stop on live thread %q", p.name))
	}
	p.stop()
}

// Pool recycles finished Ps so later threads reuse their coroutines. It is
// single-owner (an engine); it performs no locking.
type Pool struct {
	free []*P
}

// Get returns a P primed with body, reusing a pooled coroutine if one is
// free.
func (pl *Pool) Get(name string, body func(*Ctx)) *P {
	var p *P
	if n := len(pl.free); n > 0 {
		p = pl.free[n-1]
		pl.free[n-1] = nil
		pl.free = pl.free[:n-1]
		p.started, p.done, p.killed = false, false, false
	} else {
		p = newP()
	}
	p.name, p.body = name, body
	return p
}

// Put returns a finished or killed P for reuse. The caller must not touch
// p afterwards.
func (pl *Pool) Put(p *P) {
	if !p.done && !p.killed {
		panic(fmt.Sprintf("proc: Put of live thread %q", p.name))
	}
	p.body = nil
	pl.free = append(pl.free, p)
}

// Size reports how many Ps are parked in the pool.
func (pl *Pool) Size() int { return len(pl.free) }

// Drain stops every pooled coroutine; engines call it at Shutdown so no
// parked goroutines outlive the simulation.
func (pl *Pool) Drain() {
	for _, p := range pl.free {
		p.Stop()
	}
	pl.free = nil
}

// Ctx is the thread-side handle used inside a thread body.
type Ctx struct {
	p *P
}

// Ask parks the thread with a request and returns the engine's response.
// If the engine kills the thread while parked, Ask never returns (the
// body unwinds).
func (c *Ctx) Ask(r Request) any {
	p := c.p
	p.yield(r)
	if p.killed {
		panic(killSentinel{})
	}
	v := p.resp
	p.resp = nil
	return v
}

// Name reports the thread's debug name.
func (c *Ctx) Name() string { return c.p.name }
