package baseline_test

// Construction and characterisation tests for the comparison systems.

import (
	"testing"

	"skyloft/internal/baseline/ghostsim"
	"skyloft/internal/baseline/linuxsim"
	"skyloft/internal/baseline/shenangosim"
	"skyloft/internal/baseline/shinjukusim"
	"skyloft/internal/hw"
	"skyloft/internal/ksched"
	"skyloft/internal/sched"
	"skyloft/internal/simtime"
)

func TestLinuxVariantsTable5(t *testing.T) {
	// Table 5 parameters must be encoded exactly.
	cases := []struct {
		v     linuxsim.Variant
		hz    int64
		class ksched.Class
	}{
		{linuxsim.RRDefault, 250, ksched.ClassRR},
		{linuxsim.CFSDefault, 250, ksched.ClassCFS},
		{linuxsim.CFSTuned, 1000, ksched.ClassCFS},
		{linuxsim.EEVDFDefault, 1000, ksched.ClassEEVDF},
		{linuxsim.EEVDFTuned, 1000, ksched.ClassEEVDF},
	}
	for _, c := range cases {
		p := c.v.Params()
		if p.HZ != c.hz {
			t.Errorf("%s: HZ = %d, want %d", c.v, p.HZ, c.hz)
		}
		if c.v.Class() != c.class {
			t.Errorf("%s: class = %v, want %v", c.v, c.v.Class(), c.class)
		}
	}
	if p := linuxsim.RRDefault.Params(); p.RRTimeslice != 100*simtime.Millisecond {
		t.Errorf("RR default slice = %v", p.RRTimeslice)
	}
	if p := linuxsim.CFSTuned.Params(); p.CFS.MinGranularity != 12500 || p.CFS.SchedLatency != 50*simtime.Microsecond {
		t.Errorf("tuned CFS params wrong: %+v", p)
	}
	if len(linuxsim.Variants()) != 5 {
		t.Errorf("Variants() = %d entries", len(linuxsim.Variants()))
	}
}

func TestLinuxsimRuns(t *testing.T) {
	m := hw.NewMachine(hw.DefaultConfig())
	k := linuxsim.New(linuxsim.CFSTuned, m, 2, 1)
	defer k.Shutdown()
	done := false
	k.Start("w", func(e sched.Env) {
		e.Run(simtime.Millisecond)
		done = true
	})
	k.Run(10 * simtime.Millisecond)
	if !done {
		t.Fatal("work did not complete")
	}
}

func TestGhostsimPaysTransactionCosts(t *testing.T) {
	// ghOSt's dispatcher (agent) must be substantially slower per decision
	// than Skyloft's: at a dispatch-bound load, completion of N tiny tasks
	// takes visibly longer.
	run := func(ghost bool) simtime.Time {
		m := hw.NewMachine(hw.DefaultConfig())
		var done int
		if ghost {
			g := ghostsim.New(ghostsim.Config{Machine: m, CPUs: []int{0, 1, 2}, Quantum: 0, Seed: 1})
			defer g.Shutdown()
			app := g.NewApp("a")
			var finished simtime.Time
			for i := 0; i < 200; i++ {
				app.Start("t", func(e sched.Env) {
					e.Run(simtime.Microsecond)
					done++
					finished = e.Now()
				})
			}
			g.Run(simtime.Second)
			if done != 200 {
				t.Fatalf("ghost completed %d/200", done)
			}
			return finished
		}
		s := shinjukusim.New(shinjukusim.Config{Machine: m, CPUs: []int{0, 1, 2}, Quantum: 0, Seed: 1})
		defer s.Shutdown()
		app := s.NewApp("a")
		var finished simtime.Time
		for i := 0; i < 200; i++ {
			app.Start("t", func(e sched.Env) {
				e.Run(simtime.Microsecond)
				done++
				finished = e.Now()
			})
		}
		s.Run(simtime.Second)
		if done != 200 {
			t.Fatalf("shinjuku completed %d/200", done)
		}
		return finished
	}
	ghostTime := run(true)
	shinTime := run(false)
	if ghostTime < shinTime*2 {
		t.Fatalf("ghost dispatch (%v) not visibly slower than shinjuku (%v)", ghostTime, shinTime)
	}
}

func TestShenangosimNoPreemption(t *testing.T) {
	m := hw.NewMachine(hw.DefaultConfig())
	e := shenangosim.New(shenangosim.Config{Machine: m, CPUs: []int{0}, Seed: 1})
	defer e.Shutdown()
	app := e.NewApp("a")
	var order []string
	app.Start("scan", func(env sched.Env) {
		env.Run(simtime.Millisecond)
		order = append(order, "scan")
	})
	app.Start("get", func(env sched.Env) {
		env.Run(simtime.Microsecond)
		order = append(order, "get")
	})
	e.Run(10 * simtime.Millisecond)
	if len(order) != 2 || order[0] != "scan" {
		t.Fatalf("Shenango preempted (it must not): %v", order)
	}
	if e.Preemptions() != 0 {
		t.Fatalf("Shenango preemptions = %d", e.Preemptions())
	}
}

func TestShenangosimSteals(t *testing.T) {
	m := hw.NewMachine(hw.DefaultConfig())
	e := shenangosim.New(shenangosim.Config{Machine: m, CPUs: []int{0, 1, 2, 3}, Seed: 1})
	defer e.Shutdown()
	app := e.NewApp("a")
	done := 0
	var finished simtime.Time
	app.Start("producer", func(env sched.Env) {
		for i := 0; i < 40; i++ {
			env.Spawn("t", func(env sched.Env) {
				env.Run(100 * simtime.Microsecond)
				done++
				finished = env.Now()
			})
		}
	})
	e.Run(50 * simtime.Millisecond)
	if done != 40 {
		t.Fatalf("completed %d/40", done)
	}
	// 4 ms of work over 4 cores ⇒ ~1 ms with stealing.
	if finished > 3*simtime.Millisecond {
		t.Fatalf("work stealing ineffective: %v", finished)
	}
}

func TestShinjukusimPreemptsWithPostedInterrupts(t *testing.T) {
	m := hw.NewMachine(hw.DefaultConfig())
	e := shinjukusim.New(shinjukusim.Config{
		Machine: m, CPUs: []int{0, 1}, Quantum: 20 * simtime.Microsecond, Seed: 1,
	})
	defer e.Shutdown()
	app := e.NewApp("a")
	var shortDone simtime.Time
	app.Start("long", func(env sched.Env) { env.Run(5 * simtime.Millisecond) })
	app.Start("short", func(env sched.Env) {
		env.Run(5 * simtime.Microsecond)
		shortDone = env.Now()
	})
	e.Run(20 * simtime.Millisecond)
	if shortDone == 0 || shortDone > 200*simtime.Microsecond {
		t.Fatalf("short finished at %v — posted-interrupt preemption broken", shortDone)
	}
}
