package proc

import (
	"runtime"
	"testing"
)

type testReq struct{ n int }

func TestResumeYieldCycle(t *testing.T) {
	var trace []int
	p := New("worker", func(c *Ctx) {
		for i := 0; i < 3; i++ {
			v := c.Ask(testReq{n: i})
			trace = append(trace, v.(int))
		}
	})
	resp := 0
	for i := 0; ; i++ {
		req := p.Resume(resp * 10)
		if _, done := req.(ExitRequest); done {
			break
		}
		r := req.(testReq)
		if r.n != i {
			t.Fatalf("request %d carried n=%d", i, r.n)
		}
		resp = r.n + 1
	}
	want := []int{10, 20, 30}
	for i := range want {
		if trace[i] != want[i] {
			t.Fatalf("trace = %v, want %v", trace, want)
		}
	}
	if !p.Done() {
		t.Fatal("thread not done after exit")
	}
}

func TestStrictHandoffDeterminism(t *testing.T) {
	// Many threads interleaved by the driver produce the same trace every
	// time, regardless of Go's scheduler.
	run := func() []string {
		var trace []string
		var ps []*P
		for i := 0; i < 8; i++ {
			name := string(rune('a' + i))
			ps = append(ps, New(name, func(c *Ctx) {
				for j := 0; j < 5; j++ {
					c.Ask(testReq{n: j})
				}
			}))
		}
		live := make(map[*P]bool)
		for _, p := range ps {
			live[p] = true
		}
		for len(live) > 0 {
			for _, p := range ps {
				if !live[p] {
					continue
				}
				req := p.Resume(nil)
				if _, done := req.(ExitRequest); done {
					delete(live, p)
					trace = append(trace, p.Name()+"!")
				} else {
					trace = append(trace, p.Name())
				}
			}
		}
		return trace
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("trace lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("traces diverge at %d: %q vs %q", i, a[i], b[i])
		}
	}
}

func TestKillParkedThread(t *testing.T) {
	p := New("victim", func(c *Ctx) {
		c.Ask(testReq{})
		t.Error("thread ran past kill point")
	})
	req := p.Resume(nil)
	if _, ok := req.(testReq); !ok {
		t.Fatalf("unexpected request %T", req)
	}
	p.Kill() // synchronous: the body has unwound when Kill returns
	p.Kill() // second kill is a no-op
	if p.Done() {
		t.Error("killed thread reports Done")
	}
	p.Stop()
}

func TestKillNeverStartedThread(t *testing.T) {
	ran := false
	p := New("unborn", func(c *Ctx) { ran = true })
	p.Kill()
	p.Stop()
	if ran {
		t.Fatal("killed never-started thread still ran")
	}
}

func TestKillRunsDefers(t *testing.T) {
	deferred := false
	p := New("victim", func(c *Ctx) {
		defer func() { deferred = true }()
		c.Ask(testReq{})
	})
	p.Resume(nil)
	p.Kill()
	if !deferred {
		t.Fatal("deferred cleanup did not run on kill")
	}
	p.Stop()
}

func TestResumeAfterExitPanics(t *testing.T) {
	p := New("short", func(c *Ctx) {})
	p.Resume(nil) // runs to completion
	defer func() {
		if recover() == nil {
			t.Error("Resume after exit did not panic")
		}
	}()
	p.Resume(nil)
}

// TestPoolReuse ends a pooled thread's first life in each possible way and
// checks the recycled P starts its second life clean: same coroutine, body
// from the top, responses delivered, no state carried over.
func TestPoolReuse(t *testing.T) {
	cases := []struct {
		name string
		end  func(t *testing.T, p *P) // finishes the first life
	}{
		{"normal exit", func(t *testing.T, p *P) {
			p.Resume(nil)
			if _, ok := p.Resume(nil).(ExitRequest); !ok || !p.Done() {
				t.Fatal("first life did not exit")
			}
		}},
		{"kill mid-body", func(t *testing.T, p *P) {
			p.Resume(nil)
			p.Kill()
		}},
		{"kill before first resume", func(t *testing.T, p *P) {
			p.Kill()
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var pl Pool
			var firstDeferred bool
			first := pl.Get("first", func(c *Ctx) {
				defer func() { firstDeferred = true }()
				c.Ask(testReq{n: 1})
			})
			tc.end(t, first)
			if first.started && !firstDeferred {
				t.Fatal("first life's defers did not run")
			}
			pl.Put(first)
			if pl.Size() != 1 {
				t.Fatalf("pool size %d after Put, want 1", pl.Size())
			}

			var got []any
			second := pl.Get("second", func(c *Ctx) {
				got = append(got, c.Name(), c.Ask(testReq{n: 2}))
			})
			if second != first {
				t.Fatal("pool did not reuse the P")
			}
			if second.Done() || second.killed || second.started {
				t.Fatal("reused P carries state from its first life")
			}
			if r, ok := second.Resume(nil).(testReq); !ok || r.n != 2 {
				t.Fatalf("second life's first request = %v, want testReq{2}", r)
			}
			if _, ok := second.Resume(42).(ExitRequest); !ok {
				t.Fatal("second life did not exit")
			}
			if len(got) != 2 || got[0] != "second" || got[1] != 42 {
				t.Fatalf("second life saw %v, want [second 42]", got)
			}
			pl.Put(second)
			pl.Drain()
		})
	}
}

// TestDrainReapsGoroutines checks every coroutine behind a P is a real
// goroutine while the P lives and is gone once Stop or Pool.Drain
// returns, whichever way its last life ended.
func TestDrainReapsGoroutines(t *testing.T) {
	base := runtime.NumGoroutine()
	var pl Pool
	body := func(c *Ctx) { c.Ask(testReq{}) }
	exited := pl.Get("exited", body)
	exited.Resume(nil)
	exited.Resume(nil)
	midKill := pl.Get("mid-kill", body)
	midKill.Resume(nil)
	midKill.Kill()
	unborn := pl.Get("unborn", body)
	unborn.Kill()
	alone := New("alone", body)
	alone.Resume(nil)
	alone.Kill()
	if got := runtime.NumGoroutine(); got != base+4 {
		t.Fatalf("goroutines = %d with 4 Ps, want %d", got, base+4)
	}
	for _, p := range []*P{exited, midKill, unborn} {
		pl.Put(p)
	}
	pl.Drain()
	alone.Stop()
	if pl.Size() != 0 {
		t.Fatalf("pool size %d after Drain", pl.Size())
	}
	if got := runtime.NumGoroutine(); got != base {
		t.Fatalf("goroutines = %d after Drain/Stop, want baseline %d", got, base)
	}
}

// TestBodyPanicSurfacesFromResume checks a genuine bug in a thread body
// re-panics from Resume, in the caller's goroutine, with its own value.
func TestBodyPanicSurfacesFromResume(t *testing.T) {
	type bug struct{ msg string }
	p := New("buggy", func(c *Ctx) {
		c.Ask(testReq{})
		panic(bug{"boom"})
	})
	p.Resume(nil)
	defer func() {
		if r := recover(); r != (bug{"boom"}) {
			t.Fatalf("Resume panicked with %v, want bug{boom}", r)
		}
	}()
	p.Resume(nil)
	t.Fatal("Resume returned after the body panicked")
}

// BenchmarkResumeAsk measures one Resume→Ask round trip: the engine hands
// a response in and the thread parks on its next request.
func BenchmarkResumeAsk(b *testing.B) {
	p := New("loop", func(c *Ctx) {
		for {
			c.Ask(testReq{})
		}
	})
	b.ReportAllocs()
	p.Resume(nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Resume(nil)
	}
	b.StopTimer()
	p.Kill()
	p.Stop()
}

// BenchmarkPoolLife measures one pooled thread life: Get, run one request,
// exit, Put.
func BenchmarkPoolLife(b *testing.B) {
	var pl Pool
	body := func(c *Ctx) { c.Ask(testReq{}) }
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p := pl.Get("life", body)
		p.Resume(nil)
		p.Resume(nil)
		pl.Put(p)
	}
	b.StopTimer()
	pl.Drain()
}
