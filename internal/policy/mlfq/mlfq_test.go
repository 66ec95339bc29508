package mlfq_test

import (
	"testing"

	"skyloft/internal/core"
	"skyloft/internal/cycles"
	"skyloft/internal/hw"
	"skyloft/internal/policy"
	"skyloft/internal/policy/mlfq"
	"skyloft/internal/sched"
	"skyloft/internal/simtime"
)

func newEngine(t *testing.T, p policy.Policy, cpus int) *core.Engine {
	t.Helper()
	list := make([]int, cpus)
	for i := range list {
		list[i] = i
	}
	e := core.New(core.Config{
		Machine:   hw.NewMachine(hw.DefaultConfig()),
		CPUs:      list,
		Mode:      core.PerCPU,
		Policy:    p,
		Costs:     core.SkyloftCosts(cycles.Default()),
		TimerMode: core.TimerLAPIC,
		TimerHz:   100_000,
		Seed:      1,
	})
	t.Cleanup(e.Shutdown)
	return e
}

func TestShortRequestsBeatHogs(t *testing.T) {
	p := mlfq.New(mlfq.DefaultParams())
	e := newEngine(t, p, 1)
	app := e.NewApp("a")
	// Two CPU hogs occupy the core first.
	for i := 0; i < 2; i++ {
		app.Start("hog", func(env sched.Env) { env.Run(5 * simtime.Millisecond) })
	}
	// Short requests arriving later must overtake the hogs (the hogs have
	// sunk to lower levels).
	var shortLat []simtime.Duration
	app.Start("gen", func(env sched.Env) {
		env.Sleep(500 * simtime.Microsecond)
		for i := 0; i < 10; i++ {
			env.Spawn("short", func(env sched.Env) {
				start := env.Now()
				env.Run(15 * simtime.Microsecond) // under the top quantum
				shortLat = append(shortLat, env.Now()-start)
			})
			env.Sleep(100 * simtime.Microsecond)
		}
	})
	e.Run(20 * simtime.Millisecond)
	if len(shortLat) != 10 {
		t.Fatalf("only %d shorts finished", len(shortLat))
	}
	for i, l := range shortLat {
		// Each short waits at most roughly one top-level quantum behind
		// the running hog plus overheads.
		if l > 100*simtime.Microsecond {
			t.Fatalf("short %d sojourn %v — MLFQ not prioritising", i, l)
		}
	}
}

func TestHogsDemoteAndStillFinish(t *testing.T) {
	p := mlfq.New(mlfq.Params{Levels: 3, BaseQuantum: 20 * simtime.Microsecond})
	e := newEngine(t, p, 1)
	app := e.NewApp("a")
	var hog *sched.Thread
	done := false
	hog = app.Start("hog", func(env sched.Env) {
		env.Run(2 * simtime.Millisecond)
		done = true
	})
	app.Start("rival", func(env sched.Env) { env.Run(2 * simtime.Millisecond) })
	e.Run(simtime.Millisecond)
	if lvl := p.Level(hog); lvl == 0 {
		t.Fatal("hog never demoted")
	}
	e.Run(10 * simtime.Millisecond)
	if !done {
		t.Fatal("demoted hog starved")
	}
}

func TestBoostPreventsStarvation(t *testing.T) {
	p := mlfq.New(mlfq.Params{Levels: 3, BaseQuantum: 10 * simtime.Microsecond,
		BoostInterval: 200 * simtime.Microsecond})
	e := newEngine(t, p, 1)
	app := e.NewApp("a")
	sunk := app.Start("sunk", func(env sched.Env) { env.Run(3 * simtime.Millisecond) })
	// A stream of short tasks that would otherwise permanently occupy
	// level 0.
	app.Start("stream", func(env sched.Env) {
		for i := 0; i < 200; i++ {
			env.Run(8 * simtime.Microsecond)
			env.Sleep(2 * simtime.Microsecond)
		}
	})
	e.Run(3 * simtime.Millisecond)
	// The hog must make steady progress despite the stream.
	if sunk.CPUTime < 500*simtime.Microsecond {
		t.Fatalf("boost failed: hog got only %v of 3ms", sunk.CPUTime)
	}
}

func TestWakingTaskResetsToTop(t *testing.T) {
	p := mlfq.New(mlfq.Params{Levels: 3, BaseQuantum: 20 * simtime.Microsecond})
	e := newEngine(t, p, 1)
	app := e.NewApp("a")
	sank, woke := -1, -1
	var io *sched.Thread
	io = app.Start("io-ish", func(env sched.Env) {
		env.Run(100 * simtime.Microsecond) // sink at least one level
		sank = p.Level(env.Self())
		env.Sleep(50 * simtime.Microsecond)
		env.Run(simtime.Microsecond)
		woke = p.Level(env.Self()) // after the sleep: back at the top
	})
	app.Start("rival", func(env sched.Env) { env.Run(simtime.Millisecond) })
	e.RunUntil(5*simtime.Millisecond, func() bool { return io.State == sched.Exited })
	if sank == 0 {
		t.Fatal("task never demoted before sleeping")
	}
	if woke != 0 {
		t.Fatalf("woken task at level %d, want 0", woke)
	}
}
