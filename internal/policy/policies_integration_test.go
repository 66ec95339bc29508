package policy_test

// Integration tests running each real policy package inside the Skyloft
// engine — the behavioural contracts each scheduler must honour.

import (
	"testing"

	"skyloft/internal/core"
	"skyloft/internal/cycles"
	"skyloft/internal/hw"
	"skyloft/internal/policy"
	"skyloft/internal/policy/cfs"
	"skyloft/internal/policy/eevdf"
	"skyloft/internal/policy/fifo"
	"skyloft/internal/policy/rr"
	"skyloft/internal/policy/shinjuku"
	"skyloft/internal/policy/worksteal"
	"skyloft/internal/sched"
	"skyloft/internal/simtime"
)

func newEngine(t *testing.T, pol policy.Policy, cpus int, hz int64) *core.Engine {
	t.Helper()
	mode := core.TimerNone
	if hz > 0 {
		mode = core.TimerLAPIC
	}
	list := make([]int, cpus)
	for i := range list {
		list[i] = i
	}
	e := core.New(core.Config{
		Machine:   hw.NewMachine(hw.DefaultConfig()),
		CPUs:      list,
		Mode:      core.PerCPU,
		Policy:    pol,
		Costs:     core.SkyloftCosts(cycles.Default()),
		TimerMode: mode,
		TimerHz:   hz,
		Seed:      1,
	})
	t.Cleanup(e.Shutdown)
	return e
}

func TestFIFONoPreemption(t *testing.T) {
	e := newEngine(t, fifo.New(), 1, 100_000)
	app := e.NewApp("a")
	var order []string
	app.Start("long", func(env sched.Env) {
		env.Run(simtime.Millisecond)
		order = append(order, "long")
	})
	app.Start("short", func(env sched.Env) {
		env.Run(10 * simtime.Microsecond)
		order = append(order, "short")
	})
	e.Run(simtime.Second)
	if len(order) != 2 || order[0] != "long" {
		t.Fatalf("FIFO should run to completion: %v", order)
	}
	if e.Preemptions() != 0 {
		t.Fatalf("FIFO preempted %d times", e.Preemptions())
	}
}

func TestRRSlicePreemption(t *testing.T) {
	e := newEngine(t, rr.New(50*simtime.Microsecond), 1, 100_000)
	app := e.NewApp("a")
	var a, b *sched.Thread
	a = app.Start("a", func(env sched.Env) { env.Run(simtime.Millisecond) })
	b = app.Start("b", func(env sched.Env) { env.Run(simtime.Millisecond) })
	e.Run(simtime.Millisecond)
	// At the 1ms mark, both should have ~500µs ± a slice.
	if a.CPUTime < 350*simtime.Microsecond || b.CPUTime < 350*simtime.Microsecond {
		t.Fatalf("RR did not share: a=%v b=%v", a.CPUTime, b.CPUTime)
	}
	if e.Preemptions() < 5 {
		t.Fatalf("too few RR preemptions: %d", e.Preemptions())
	}
}

func TestCFSFairnessAcrossBlockingTask(t *testing.T) {
	// A task that blocks periodically must not starve nor be starved.
	e := newEngine(t, cfs.New(cfs.DefaultParams()), 1, 100_000)
	app := e.NewApp("a")
	spinner := app.Start("spin", func(env sched.Env) {
		for i := 0; i < 100000; i++ {
			env.Run(100 * simtime.Microsecond)
		}
	})
	var blocky *sched.Thread
	blocky = app.Start("blocky", func(env sched.Env) {
		for i := 0; i < 100000; i++ {
			env.Run(50 * simtime.Microsecond)
			env.Sleep(50 * simtime.Microsecond)
		}
	})
	e.Run(20 * simtime.Millisecond)
	// blocky demands 50% of one core; it must get close to that since the
	// spinner can absorb the rest.
	if blocky.CPUTime < 6*simtime.Millisecond {
		t.Fatalf("blocking task starved: %v of 20ms", blocky.CPUTime)
	}
	if spinner.CPUTime < 6*simtime.Millisecond {
		t.Fatalf("spinner starved: %v of 20ms", spinner.CPUTime)
	}
}

func TestCFSPrefersLeftmostVruntime(t *testing.T) {
	p := cfs.New(cfs.DefaultParams())
	e := newEngine(t, p, 1, 100_000)
	app := e.NewApp("a")
	// Start a hog, let it accumulate vruntime, then start a newcomer: the
	// newcomer should get the CPU quickly (sleeper credit).
	hog := app.Start("hog", func(env sched.Env) { env.Run(10 * simtime.Millisecond) })
	_ = hog
	var firstRun simtime.Time
	e.Run(2 * simtime.Millisecond)
	app.Start("newcomer", func(env sched.Env) {
		firstRun = env.Now()
		env.Run(100 * simtime.Microsecond)
	})
	e.Run(4 * simtime.Millisecond)
	if firstRun == 0 {
		t.Fatal("newcomer never ran")
	}
	wait := firstRun - 2*simtime.Millisecond
	if wait > 100*simtime.Microsecond {
		t.Fatalf("newcomer waited %v — CFS should schedule it within ~a slice", wait)
	}
}

func TestEEVDFSharesByDeadline(t *testing.T) {
	e := newEngine(t, eevdf.New(eevdf.DefaultParams()), 1, 100_000)
	app := e.NewApp("a")
	var threads []*sched.Thread
	for i := 0; i < 3; i++ {
		threads = append(threads, app.Start("w", func(env sched.Env) {
			env.Run(10 * simtime.Millisecond)
		}))
	}
	e.Run(6 * simtime.Millisecond)
	for _, th := range threads {
		if th.CPUTime < simtime.Millisecond {
			t.Fatalf("EEVDF starvation: %v", th.CPUTime)
		}
	}
}

func TestWorkStealingBalances(t *testing.T) {
	p := worksteal.New(0, 1)
	e := newEngine(t, p, 4, 0)
	app := e.NewApp("a")
	// One producer spawns 40 tasks; without stealing they'd pile on a few
	// cores (spawn prefers idle cores, but bursts overload the picker).
	done := 0
	app.Start("producer", func(env sched.Env) {
		for i := 0; i < 40; i++ {
			env.Spawn("task", func(env sched.Env) {
				env.Run(100 * simtime.Microsecond)
				done++
			})
		}
	})
	e.Run(20 * simtime.Millisecond)
	if done != 40 {
		t.Fatalf("completed %d/40", done)
	}
	// 40 × 100 µs over 4 cores ⇒ ≥ 1 ms; with balance it should be close
	// to optimal (~1.1 ms including spawn serialisation).
	if now := e.Machine().Now(); now > 3*simtime.Millisecond {
		t.Fatalf("poor balance: finished at %v", now)
	}
}

func TestWorkStealingPreemptsWithQuantum(t *testing.T) {
	p := worksteal.New(5*simtime.Microsecond, 1)
	e := newEngine(t, p, 1, 200_000)
	app := e.NewApp("a")
	app.Start("scan", func(env sched.Env) { env.Run(simtime.Millisecond) })
	var getDone simtime.Time
	app.Start("get", func(env sched.Env) {
		env.Run(simtime.Microsecond)
		getDone = env.Now()
	})
	e.Run(5 * simtime.Millisecond)
	if getDone == 0 || getDone > 50*simtime.Microsecond {
		t.Fatalf("GET behind SCAN finished at %v; 5us quantum should bound it", getDone)
	}
}

func TestShinjukuQueueFIFOAndQuantum(t *testing.T) {
	p := shinjuku.New(30 * simtime.Microsecond)
	if p.Quantum() != 30*simtime.Microsecond {
		t.Fatal("quantum not stored")
	}
	a := &sched.Thread{ID: 1}
	b := &sched.Thread{ID: 2}
	p.Enqueue(a, 0)
	p.Enqueue(b, 0)
	if p.Len() != 2 {
		t.Fatalf("len = %d", p.Len())
	}
	a.EnqueuedAt = 100
	if w := p.OldestWait(600); w != 500 {
		t.Fatalf("OldestWait = %v", w)
	}
	if p.Dequeue() != a || p.Dequeue() != b || p.Dequeue() != nil {
		t.Fatal("FIFO order broken")
	}
	if p.OldestWait(0) != 0 {
		t.Fatal("empty OldestWait should be 0")
	}
}

func TestPolicyNames(t *testing.T) {
	if fifo.New().Name() == "" || rr.New(1).Name() == "" ||
		cfs.New(cfs.DefaultParams()).Name() == "" ||
		eevdf.New(eevdf.DefaultParams()).Name() == "" ||
		worksteal.New(0, 1).Name() != "skyloft-ws" ||
		worksteal.New(1, 1).Name() != "skyloft-ws-preempt" ||
		shinjuku.New(0).Name() == "" {
		t.Fatal("policy names broken")
	}
}
