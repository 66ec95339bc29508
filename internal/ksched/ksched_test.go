package ksched

import (
	"math"
	"testing"

	"skyloft/internal/hw"
	"skyloft/internal/sched"
	"skyloft/internal/simtime"
)

func newKernel(t *testing.T, ncpu int, params Params, class Class) *Kernel {
	t.Helper()
	cfg := hw.DefaultConfig()
	m := hw.NewMachine(cfg)
	cpus := make([]int, ncpu)
	for i := range cpus {
		cpus[i] = i
	}
	k := New(Config{Machine: m, CPUs: cpus, Params: params, Class: class, Seed: 1})
	t.Cleanup(k.Shutdown)
	return k
}

func TestRunToCompletion(t *testing.T) {
	k := newKernel(t, 1, DefaultParams(), ClassCFS)
	var doneAt simtime.Time
	k.Start("main", func(e sched.Env) {
		e.Run(5 * simtime.Millisecond)
		doneAt = e.Now()
	})
	k.Run(5 * simtime.Second)
	if doneAt < 5*simtime.Millisecond {
		t.Fatalf("thread finished at %v before consuming its CPU time", doneAt)
	}
	// Overheads (switch + ticks) should be well under 10% here.
	if doneAt > 6*simtime.Millisecond {
		t.Fatalf("thread finished at %v, far beyond 5ms of work", doneAt)
	}
}

func TestCFSFairness(t *testing.T) {
	// Two CPU-bound threads on one core must receive near-equal CPU time.
	k := newKernel(t, 1, DefaultParams(), ClassCFS)
	var threads []*sched.Thread
	for i := 0; i < 2; i++ {
		threads = append(threads, k.Start("spin", func(e sched.Env) {
			for j := 0; j < 1000; j++ {
				e.Run(simtime.Millisecond)
			}
		}))
	}
	k.Run(100 * simtime.Millisecond)
	a, b := threads[0].CPUTime, threads[1].CPUTime
	ratio := float64(a) / float64(b)
	if ratio < 0.8 || ratio > 1.25 {
		t.Fatalf("CFS unfair: %v vs %v (ratio %.2f)", a, b, ratio)
	}
}

func TestCFSPreemptsAtTickGranularity(t *testing.T) {
	// With two spinners, each on-CPU stretch must be bounded by the ideal
	// slice rounded up to a tick — CFS cannot preempt between ticks.
	p := DefaultParams() // HZ=250 → 4ms tick
	k := newKernel(t, 1, p, ClassCFS)
	var switches []simtime.Time
	prev := -1
	mon := func(id int) sched.Func {
		return func(e sched.Env) {
			for j := 0; j < 10000; j++ {
				e.Run(100 * simtime.Microsecond)
				if prev != id {
					prev = id
					switches = append(switches, e.Now())
				}
			}
		}
	}
	k.Start("a", mon(0))
	k.Start("b", mon(1))
	k.Run(200 * simtime.Millisecond)
	if len(switches) < 3 {
		t.Fatalf("only %d scheduler interleavings in 200ms", len(switches))
	}
	// Gaps between ownership changes should cluster at multiples of the
	// 4ms tick and exceed min_granularity.
	for i := 1; i < len(switches); i++ {
		gap := switches[i] - switches[i-1]
		if gap < p.CFS.MinGranularity/2 {
			t.Fatalf("switch gap %v below min granularity", gap)
		}
	}
}

func TestRRSlicing(t *testing.T) {
	p := DefaultParams()
	p.RRTimeslice = 8 * simtime.Millisecond // two ticks at 250 Hz
	k := newKernel(t, 1, p, ClassRR)
	var order []int
	mk := func(id int) sched.Func {
		return func(e sched.Env) {
			for j := 0; j < 6; j++ {
				e.Run(4 * simtime.Millisecond)
				order = append(order, id)
			}
		}
	}
	k.Start("a", mk(0))
	k.Start("b", mk(1))
	k.Run(5 * simtime.Second)
	if len(order) != 12 {
		t.Fatalf("incomplete run: %v", order)
	}
	// With an 8ms slice and 4ms chunks, ownership must alternate in pairs
	// (a,a,b,b,a,a,...) rather than run-to-completion (a×6 then b×6).
	firstB := -1
	for i, id := range order {
		if id == 1 {
			firstB = i
			break
		}
	}
	if firstB < 0 || firstB > 3 {
		t.Fatalf("RR did not interleave: %v", order)
	}
}

func TestFIFORunsToBlock(t *testing.T) {
	k := newKernel(t, 1, DefaultParams(), ClassFIFO)
	var order []int
	mk := func(id int) sched.Func {
		return func(e sched.Env) {
			for j := 0; j < 3; j++ {
				e.Run(10 * simtime.Millisecond)
				order = append(order, id)
			}
		}
	}
	k.Start("a", mk(0))
	k.Start("b", mk(1))
	k.Run(5 * simtime.Second)
	want := []int{0, 0, 0, 1, 1, 1} // strict run-to-completion
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("FIFO interleaved: %v", order)
		}
	}
}

func TestBlockWake(t *testing.T) {
	k := newKernel(t, 2, DefaultParams(), ClassCFS)
	var consumerRan simtime.Time
	var consumer *sched.Thread
	consumer = k.Start("consumer", func(e sched.Env) {
		e.Block()
		consumerRan = e.Now()
		e.Run(simtime.Microsecond)
	})
	k.Start("producer", func(e sched.Env) {
		e.Run(2 * simtime.Millisecond)
		e.Wake(consumer)
	})
	k.Run(5 * simtime.Second)
	if consumerRan < 2*simtime.Millisecond {
		t.Fatalf("consumer ran at %v before being woken", consumerRan)
	}
	if consumer.State != sched.Exited {
		t.Fatalf("consumer state = %v", consumer.State)
	}
}

func TestWakePendingPreventsLostWakeup(t *testing.T) {
	k := newKernel(t, 2, DefaultParams(), ClassCFS)
	completed := false
	var waiter *sched.Thread
	waiter = k.Start("waiter", func(e sched.Env) {
		e.Run(3 * simtime.Millisecond) // wake arrives while running
		e.Block()                      // must consume pending wake, not hang
		completed = true
	})
	k.Start("waker", func(e sched.Env) {
		e.Run(simtime.Millisecond)
		e.Wake(waiter)
	})
	k.Run(5 * simtime.Second)
	if !completed {
		t.Fatal("wake-before-block was lost")
	}
}

func TestSleepWakesOnTime(t *testing.T) {
	k := newKernel(t, 1, DefaultParams(), ClassCFS)
	var at simtime.Time
	k.Start("sleeper", func(e sched.Env) {
		e.Sleep(7 * simtime.Millisecond)
		at = e.Now()
	})
	k.Run(5 * simtime.Second)
	if at < 7*simtime.Millisecond || at > 8*simtime.Millisecond {
		t.Fatalf("sleeper resumed at %v, want ~7ms", at)
	}
}

func TestSpawnChildRuns(t *testing.T) {
	k := newKernel(t, 2, DefaultParams(), ClassCFS)
	childDone := false
	k.Start("parent", func(e sched.Env) {
		child := e.Spawn("child", func(e sched.Env) {
			e.Run(simtime.Millisecond)
			childDone = true
		})
		if child == nil {
			t.Error("Spawn returned nil")
		}
		e.Run(simtime.Millisecond)
	})
	k.Run(5 * simtime.Second)
	if !childDone {
		t.Fatal("child never ran")
	}
}

func TestMutexExclusionAndHandoff(t *testing.T) {
	k := newKernel(t, 4, DefaultParams(), ClassCFS)
	var mu sched.Mutex
	inCS := 0
	maxCS := 0
	total := 0
	for i := 0; i < 4; i++ {
		k.Start("locker", func(e sched.Env) {
			for j := 0; j < 10; j++ {
				mu.Lock(e)
				inCS++
				if inCS > maxCS {
					maxCS = inCS
				}
				e.Run(50 * simtime.Microsecond)
				inCS--
				total++
				mu.Unlock(e)
			}
		})
	}
	k.Run(5 * simtime.Second)
	if maxCS != 1 {
		t.Fatalf("mutual exclusion violated: %d threads in CS", maxCS)
	}
	if total != 40 {
		t.Fatalf("completed %d/40 critical sections", total)
	}
}

func TestCondvarPingPong(t *testing.T) {
	k := newKernel(t, 2, DefaultParams(), ClassCFS)
	var mu sched.Mutex
	var cv sched.Cond
	turn := 0
	var seq []int
	for i := 0; i < 2; i++ {
		id := i
		k.Start("pp", func(e sched.Env) {
			for j := 0; j < 5; j++ {
				mu.Lock(e)
				for turn != id {
					cv.Wait(e, &mu)
				}
				seq = append(seq, id)
				turn = 1 - id
				cv.Broadcast(e)
				mu.Unlock(e)
			}
		})
	}
	k.Run(5 * simtime.Second)
	if len(seq) != 10 {
		t.Fatalf("ping-pong incomplete: %v", seq)
	}
	for i := range seq {
		if seq[i] != i%2 {
			t.Fatalf("strict alternation violated: %v", seq)
		}
	}
}

func TestWakeupLatencyTickBounded(t *testing.T) {
	// The Fig. 5 mechanism: with cores oversubscribed, a woken thread's
	// wait is bounded below by queueing across tick-gated slices — default
	// Linux lands in milliseconds.
	k := newKernel(t, 1, DefaultParams(), ClassCFS)
	var workers []*sched.Thread
	for i := 0; i < 4; i++ {
		w := k.Start("worker", func(e sched.Env) {
			for {
				e.Block()
				e.Run(2300 * simtime.Microsecond)
			}
		})
		w.RecordWakeup = true
		workers = append(workers, w)
	}
	k.Start("message", func(e sched.Env) {
		for i := 0; i < 200; i++ {
			for _, w := range workers {
				e.Wake(w)
			}
			e.Sleep(10 * simtime.Millisecond)
		}
	})
	k.Run(2 * simtime.Second)
	if k.WakeupHist.Count() < 100 {
		t.Fatalf("too few wakeups recorded: %d", k.WakeupHist.Count())
	}
	p99 := k.WakeupHist.P99()
	if p99 < simtime.Millisecond {
		t.Fatalf("p99 wakeup %v — oversubscribed default Linux should be ms-scale", p99)
	}
}

func TestEEVDFFairness(t *testing.T) {
	p := DefaultParams()
	p.HZ = 1000
	k := newKernel(t, 1, p, ClassEEVDF)
	var threads []*sched.Thread
	for i := 0; i < 3; i++ {
		threads = append(threads, k.Start("spin", func(e sched.Env) {
			for j := 0; j < 3000; j++ {
				e.Run(simtime.Millisecond)
			}
		}))
	}
	k.Run(300 * simtime.Millisecond)
	mean := 0.0
	for _, th := range threads {
		mean += float64(th.CPUTime)
	}
	mean /= 3
	for _, th := range threads {
		if math.Abs(float64(th.CPUTime)-mean)/mean > 0.25 {
			t.Fatalf("EEVDF unfair: %v vs mean %v", th.CPUTime, simtime.Duration(mean))
		}
	}
}

func TestSignalInterruptsRunningThread(t *testing.T) {
	k := newKernel(t, 2, DefaultParams(), ClassCFS)
	var sigAt simtime.Time
	target := k.Start("target", func(e sched.Env) {
		e.Run(20 * simtime.Millisecond)
	})
	k.m.Clock.At(5*simtime.Millisecond, func() {
		k.SendSignal(1, target, func() { sigAt = k.m.Now() })
	})
	k.Run(5 * simtime.Second)
	if sigAt < 5*simtime.Millisecond || sigAt > 6*simtime.Millisecond {
		t.Fatalf("signal handled at %v, want shortly after 5ms", sigAt)
	}
	if target.CPUTime < 20*simtime.Millisecond {
		t.Fatalf("signal destroyed the target's remaining work: %v", target.CPUTime)
	}
}

func TestSetitimerPeriodicDelivery(t *testing.T) {
	k := newKernel(t, 1, DefaultParams(), ClassCFS)
	fires := 0
	target := k.Start("target", func(e sched.Env) {
		e.Run(50 * simtime.Millisecond)
	})
	it := k.Setitimer(target, 10*simtime.Millisecond, func() { fires++ })
	k.Run(45 * simtime.Millisecond)
	it.Stop()
	if fires < 3 || fires > 5 {
		t.Fatalf("itimer fired %d times in 45ms at 10ms period", fires)
	}
}

func TestMultiCoreParallelism(t *testing.T) {
	k := newKernel(t, 4, DefaultParams(), ClassCFS)
	var doneAt simtime.Time
	var wg sched.WaitGroup
	k.Start("main", func(e sched.Env) {
		wg.Add(e, 4)
		for i := 0; i < 4; i++ {
			e.Spawn("w", func(e sched.Env) {
				e.Run(10 * simtime.Millisecond)
				wg.Done(e)
			})
		}
		wg.Wait(e)
		doneAt = e.Now()
	})
	k.Run(5 * simtime.Second)
	// 4×10ms on 4 cores (one shared with main) must take ~10-21ms, not 40.
	if doneAt == 0 || doneAt > 25*simtime.Millisecond {
		t.Fatalf("parallel work finished at %v, cores not used in parallel", doneAt)
	}
}

func TestDeterministicReplay(t *testing.T) {
	run := func() (simtime.Time, uint64) {
		k := newKernel(t, 4, TunedParams(), ClassCFS)
		for i := 0; i < 8; i++ {
			k.Start("spin", func(e sched.Env) {
				for j := 0; j < 50; j++ {
					e.Run(simtime.Duration(100+e.Rand().Intn(500)) * simtime.Microsecond)
					e.Yield()
				}
			})
		}
		k.Run(5 * simtime.Second)
		return k.m.Now(), k.m.Clock.Dispatched()
	}
	t1, e1 := run()
	t2, e2 := run()
	if t1 != t2 || e1 != e2 {
		t.Fatalf("replay diverged: (%v,%d) vs (%v,%d)", t1, e1, t2, e2)
	}
}

func TestRTBeatsFairClass(t *testing.T) {
	// An RR (real-time) thread must preempt a CFS thread immediately on
	// wakeup, not at the next tick.
	k := newKernel(t, 1, DefaultParams(), ClassCFS)
	k.Start("fair-hog", func(e sched.Env) { e.Run(50 * simtime.Millisecond) })
	var rtRan simtime.Time
	var rt *sched.Thread
	rt = k.StartClass("rt", ClassRR, func(e sched.Env) {
		e.Block()
		rtRan = e.Now()
		e.Run(simtime.Millisecond)
	})
	k.m.Clock.At(5*simtime.Millisecond, func() { k.ExternalWake(rt) })
	k.Run(100 * simtime.Millisecond)
	if rtRan == 0 {
		t.Fatal("RT thread never ran")
	}
	// Wakeup preemption: the RT thread runs within ~the resched-IPI path,
	// far sooner than the next 4 ms tick boundary.
	if delay := rtRan - 5*simtime.Millisecond; delay > simtime.Millisecond {
		t.Fatalf("RT wakeup delay %v — should preempt CFS immediately", delay)
	}
}

func TestSignalWakesBlockedThread(t *testing.T) {
	k := newKernel(t, 1, DefaultParams(), ClassCFS)
	var handled, resumed simtime.Time
	target := k.Start("blocked", func(e sched.Env) {
		e.Block() // a signal interrupts the block
		resumed = e.Now()
	})
	k.m.Clock.At(3*simtime.Millisecond, func() {
		k.SendSignal(-1, target, func() { handled = k.m.Now() })
	})
	k.Run(simtime.Second)
	if handled == 0 || resumed == 0 {
		t.Fatalf("signal to blocked thread: handled=%v resumed=%v", handled, resumed)
	}
	if handled > resumed {
		t.Fatal("handler must run before the thread body resumes")
	}
}

func TestBatchClassNeverWakeupPreempts(t *testing.T) {
	k := newKernel(t, 1, DefaultParams(), ClassBatch)
	k.Start("batch-hog", func(e sched.Env) { e.Run(20 * simtime.Millisecond) })
	var woken *sched.Thread
	var ranAt simtime.Time
	woken = k.StartClass("batch-woken", ClassBatch, func(e sched.Env) {
		e.Block()
		ranAt = e.Now()
		e.Run(simtime.Microsecond)
	})
	k.m.Clock.At(simtime.Millisecond, func() { k.ExternalWake(woken) })
	k.Run(simtime.Second)
	if ranAt == 0 {
		t.Fatal("woken batch thread never ran")
	}
	// SCHED_BATCH never wakeup-preempts: the woken thread waits at least
	// until a tick-driven slice boundary (ms scale), not µs.
	if wait := ranAt - simtime.Millisecond; wait < simtime.Millisecond {
		t.Fatalf("batch thread ran after %v — batch must not wakeup-preempt", wait)
	}
}

// TestLentCPULifecycle drives the borrower half of the cross-runtime lease
// protocol: a lent CPU starts offline, joins the scheduling set on Online,
// re-homes its work on a cooperative vacate IPI, and can be yanked through
// ForceOffline when the IPI path is unavailable.
func TestLentCPULifecycle(t *testing.T) {
	cfg := hw.DefaultConfig()
	m := hw.NewMachine(cfg)
	k := New(Config{
		Machine:   m,
		CPUs:      []int{0},
		LentCPUs:  []int{2},
		Params:    TunedParams(),
		Class:     ClassCFS,
		Seed:      1,
		IdleSteal: true,
	})
	t.Cleanup(k.Shutdown)
	const lent = 1 // kidx of the lent CPU

	// The lender owns the hw core's handler and forwards while lent — the
	// test plays lender.
	m.Cores[2].SetIRQHandler(func(irq hw.IRQ) { k.ForwardIRQ(lent, irq) })

	if !k.Offline(lent) {
		t.Fatal("lent CPU not offline at start")
	}
	for i := 0; i < 3; i++ {
		k.Start("spin", func(e sched.Env) {
			for e.Now() < 20*simtime.Millisecond {
				e.Run(50 * simtime.Microsecond)
			}
		})
	}

	var vacated []int
	k.SetVacateHook(func(kidx int) { vacated = append(vacated, kidx) })

	m.Clock.After(simtime.Duration(1*simtime.Millisecond), func() { k.Online(lent) })
	k.Run(simtime.Time(3 * simtime.Millisecond))
	if k.Offline(lent) {
		t.Fatal("lent CPU still offline after Online")
	}
	if k.cpus[lent].lastRan == nil {
		t.Fatal("lent CPU never ran a thread (idle steal broken?)")
	}

	// Cooperative vacate: an IPI re-homes the CPU's work.
	m.SendIPI(-2, 2, VacateVector, k.cost.KernelIPIDeliver, nil)
	k.Run(simtime.Time(4 * simtime.Millisecond))
	if !k.Offline(lent) {
		t.Fatal("vacate IPI did not offline the lent CPU")
	}
	if len(vacated) != 1 || vacated[0] != lent {
		t.Fatalf("vacate hook calls = %v", vacated)
	}
	if k.runqDepth < 0 {
		t.Fatalf("runqDepth corrupted by migration: %d", k.runqDepth)
	}

	// Forced path: online again, then yank without any IPI, retrying over
	// non-quiescent windows like the lease broker does.
	k.Online(lent)
	var force func()
	force = func() {
		if !k.ForceOffline(lent) {
			m.Clock.After(simtime.Microsecond, force)
		}
	}
	m.Clock.After(simtime.Duration(5*simtime.Millisecond)-simtime.Duration(m.Now()), force)
	k.Run(simtime.Time(8 * simtime.Millisecond))
	if !k.Offline(lent) {
		t.Fatal("ForceOffline never landed")
	}
	if len(vacated) != 2 {
		t.Fatalf("vacate hook calls after force = %v", vacated)
	}
	if k.vacates != 2 || k.onlines != 2 {
		t.Fatalf("counters: vacates=%d onlines=%d", k.vacates, k.onlines)
	}

	// The home CPU keeps making progress with everything re-homed.
	before := k.threads[0].CPUTime + k.threads[1].CPUTime + k.threads[2].CPUTime
	k.Run(simtime.Time(12 * simtime.Millisecond))
	after := k.threads[0].CPUTime + k.threads[1].CPUTime + k.threads[2].CPUTime
	if after <= before {
		t.Fatal("no progress after the lent CPU was reclaimed")
	}
}
