package core

import (
	"fmt"
	"strings"
	"testing"

	"skyloft/internal/sched"
	"skyloft/internal/simtime"
)

// quickBody adapts a Begin function and an optional End function to
// sched.Quick.
type quickBody struct {
	begin func(sched.Env)
	end   func(now simtime.Time)
}

func (q *quickBody) Begin(e sched.Env) { q.begin(e) }

func (q *quickBody) End(now simtime.Time) {
	if q.end != nil {
		q.end(now)
	}
}

// panicOf runs f and reports the message it panicked with ("" if none).
func panicOf(f func()) (msg string) {
	defer func() {
		if r := recover(); r != nil {
			msg = fmt.Sprint(r)
		}
	}()
	f()
	return ""
}

// TestQuickThreadContract pins the quick-thread rules: a quick body's one
// Run sets its demand and End runs when that demand completes; any other
// request, a second Run or an Env call after the Run panics with a message
// that names the rule, instead of running at the wrong instant. A quick
// thread also runs to completion on a descriptor that a Start thread, with
// a coroutine behind it, has just left.
func TestQuickThreadContract(t *testing.T) {
	const d = 7 * simtime.Microsecond
	const suspends = "a quick body may issue no request but one Run"
	var saved sched.Env // an env kept past Begin
	for _, tc := range []struct {
		name  string
		begin func(sched.Env)
		end   func(now simtime.Time)
		// panic is a fragment of the expected panic message; "" means the
		// thread must complete, at its Begin instant plus ran.
		panic string
		ran   simtime.Duration
		// afterStart runs a Start thread to its exit first, so the quick
		// thread recycles that thread's descriptor.
		afterStart bool
	}{
		{name: "Yield", begin: func(e sched.Env) { e.Yield() }, panic: "called Yield: " + suspends},
		{name: "Block", begin: func(e sched.Env) { e.Block() }, panic: "called Block: " + suspends},
		{name: "Sleep", begin: func(e sched.Env) { e.Sleep(d) }, panic: "called Sleep: " + suspends},
		{name: "IO", begin: func(e sched.Env) { e.IO(d) }, panic: "called IO: " + suspends},
		{name: "Fault", begin: func(e sched.Env) { e.Fault(d) }, panic: "called Fault: " + suspends},
		{name: "Wake", begin: func(e sched.Env) { e.Wake(e.Self()) }, panic: "called Wake: " + suspends},
		{name: "Spawn", begin: func(e sched.Env) { e.Spawn("child", func(sched.Env) {}) },
			panic: "called Spawn: " + suspends},
		{name: "second Run", begin: func(e sched.Env) { e.Run(d); e.Run(d) },
			panic: "called Run twice: a quick body issues at most one Run"},
		{name: "Run(0) after Run", begin: func(e sched.Env) { e.Run(d); e.Run(0) },
			panic: "called Run twice: a quick body issues at most one Run"},
		{name: "Now after Run", begin: func(e sched.Env) { e.Run(d); e.Now() },
			panic: "called Now after its Run: a quick body's Run must be its last Env call"},
		{name: "Rand after Run", begin: func(e sched.Env) { e.Run(d); e.Rand() },
			panic: "called Rand after its Run: a quick body's Run must be its last Env call"},
		{name: "Env after Begin", begin: func(e sched.Env) { saved = e },
			end:   func(simtime.Time) { saved.Now() },
			panic: "called Now after Begin returned: a quick body's Env is valid only inside Begin"},
		{name: "Run", begin: func(e sched.Env) { e.Rand().Intn(10); e.Run(d) }, ran: d},
		{name: "Run(0)", begin: func(e sched.Env) { e.Run(0) }},
		{name: "Run(0) then Run", begin: func(e sched.Env) { e.Run(0); e.Run(d) }, ran: d},
		{name: "no Run", begin: func(e sched.Env) { e.Self() }},
		{name: "on a Start thread's descriptor", begin: func(e sched.Env) { e.Run(d) }, ran: d,
			afterStart: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := newEngine(t, Config{CPUs: cpus(1), Policy: newTestFIFO(0), TimerMode: TimerNone})
			app := e.NewApp("app")
			var prev *uthread
			if tc.afterStart {
				prev = ut(app.Start("coroutine", func(env sched.Env) { env.Run(d) }))
				e.Run(simtime.Millisecond)
			}
			var began, ended simtime.Time = -1, -1
			q := app.StartQuick("req", &quickBody{
				begin: func(env sched.Env) { began = env.Now(); tc.begin(env) },
				end: func(now simtime.Time) {
					ended = now
					if tc.end != nil {
						tc.end(now)
					}
				},
			})
			if tc.afterStart {
				if ut(q) != prev {
					t.Fatal("the quick thread did not reuse the Start thread's descriptor")
				}
				if ut(q).env.ctx != nil {
					t.Fatal("the recycled descriptor kept the Start thread's coroutine handle")
				}
			}
			msg := panicOf(func() { e.Run(2 * simtime.Millisecond) })
			if tc.panic != "" {
				if !strings.Contains(msg, tc.panic) {
					t.Fatalf("panic %q, want one containing %q", msg, tc.panic)
				}
				return
			}
			if msg != "" {
				t.Fatalf("unexpected panic: %s", msg)
			}
			if began < 0 || ended != began+simtime.Time(tc.ran) {
				t.Fatalf("Begin at %v, End at %v; want End at Begin + %v", began, ended, tc.ran)
			}
			if q.State != sched.Exited || app.live != 0 {
				t.Fatalf("%v did not exit after End (%d threads live)", q, app.live)
			}
		})
	}
}
