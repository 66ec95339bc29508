package server_test

import (
	"testing"

	"skyloft/internal/apps/server"
	"skyloft/internal/core"
	"skyloft/internal/cycles"
	"skyloft/internal/hw"
	"skyloft/internal/ksched"
	"skyloft/internal/loadgen"
	"skyloft/internal/netsim"
	"skyloft/internal/policy/worksteal"
	"skyloft/internal/simtime"
)

func TestThreadPerRequestServesAllPackets(t *testing.T) {
	m := hw.NewMachine(hw.DefaultConfig())
	e := core.New(core.Config{
		Machine: m, CPUs: []int{0, 1}, Mode: core.PerCPU,
		Policy: worksteal.New(0, 1), Costs: core.SkyloftCosts(cycles.Default()),
		TimerMode: core.TimerNone, Seed: 1,
	})
	defer e.Shutdown()
	app := e.NewApp("srv")
	rec := loadgen.NewRecorder(0)
	nic := netsim.NewNIC(m.Clock, m.Cost, 2)
	server.NewThreadPerRequest(app, nic, rec, server.RunService)

	gen := loadgen.New(100_000, server.USRClasses(), 64, 1)
	server.Feed(gen, m.Clock, nic, 500)
	e.Run(simtime.Second)

	if rec.Done != 500 {
		t.Fatalf("served %d/500", rec.Done)
	}
	if nic.Delivered() != 500 {
		t.Fatalf("NIC delivered %d", nic.Delivered())
	}
	// Sojourn must include the datapath delay plus the service time.
	minLat := m.Cost.NICPoll + m.Cost.RingHop + m.Cost.NetStack
	if rec.Lat.Min() < minLat {
		t.Fatalf("min latency %v below datapath floor %v", rec.Lat.Min(), minLat)
	}
}

func TestWorkerPoolServesAllPackets(t *testing.T) {
	m := hw.NewMachine(hw.DefaultConfig())
	k := ksched.New(ksched.Config{
		Machine: m, CPUs: []int{0, 1, 2}, Params: ksched.DefaultParams(),
		Class: ksched.ClassCFS, Seed: 1,
	})
	defer k.Shutdown()
	rec := loadgen.NewRecorder(0)
	nic := netsim.NewNIC(m.Clock, m.Cost, 3)
	server.NewWorkerPool(k, k, nic, rec, 3, server.RunService)

	gen := loadgen.New(50_000, server.DispersiveClasses(), 64, 2)
	server.Feed(gen, m.Clock, nic, 300)
	k.Run(2 * simtime.Second)

	if rec.Done != 300 {
		t.Fatalf("served %d/300", rec.Done)
	}
}

func TestFeedDirectSpawnsRequestThreads(t *testing.T) {
	m := hw.NewMachine(hw.DefaultConfig())
	e := core.New(core.Config{
		Machine: m, CPUs: []int{0, 1}, Mode: core.PerCPU,
		Policy: worksteal.New(0, 1), Costs: core.SkyloftCosts(cycles.Default()),
		TimerMode: core.TimerNone, Seed: 1,
	})
	defer e.Shutdown()
	app := e.NewApp("srv")
	rec := loadgen.NewRecorder(0)
	gen := loadgen.New(200_000, server.USRClasses(), 4, 3)
	server.FeedDirect(gen, m.Clock, app, rec, 200)
	e.Run(simtime.Second)
	if rec.Done != 200 {
		t.Fatalf("served %d/200", rec.Done)
	}
	if rec.Throughput() <= 0 {
		t.Fatal("no throughput measured")
	}
}

func TestWorkloadClassMixes(t *testing.T) {
	for _, tc := range []struct {
		name    string
		classes []loadgen.Class
		nmodes  int
	}{
		{"usr", server.USRClasses(), 2},
		{"rocksdb", server.RocksDBClasses(), 2},
		{"dispersive", server.DispersiveClasses(), 2},
	} {
		if len(tc.classes) != tc.nmodes {
			t.Errorf("%s: %d classes", tc.name, len(tc.classes))
		}
		if loadgen.MeanService(tc.classes) <= 0 {
			t.Errorf("%s: non-positive mean service", tc.name)
		}
	}
	// The dispersive mix's mean must match the paper's ≈54 µs.
	mean := loadgen.MeanService(server.DispersiveClasses())
	if mean < 53*simtime.Microsecond || mean > 55*simtime.Microsecond {
		t.Fatalf("dispersive mean = %v, want ~54us", mean)
	}
}

// tprWindow is the simulated span one steady-state step covers: ~100
// requests at the fixture's 100 krps.
const tprWindow = simtime.Millisecond

func never() bool { return false }

// newTPRFixture builds the Fig. 8a request path at toy size — a Skyloft
// engine with work stealing, the NIC, server.NewThreadPerRequest with
// RunService, open-loop USR load — and warms it past the pools' high-water
// marks. With direct set, server.FeedDirect injects the same load without
// the NIC instead (the Fig. 7 path). step advances the run by one
// tprWindow with RunUntil.
func newTPRFixture(tb testing.TB, direct bool) (rec *loadgen.Recorder, step func()) {
	tb.Helper()
	m := hw.NewMachine(hw.DefaultConfig())
	e := core.New(core.Config{
		Machine: m, CPUs: []int{0, 1}, Mode: core.PerCPU,
		Policy: worksteal.New(0, 1), Costs: core.SkyloftCosts(cycles.Default()),
		TimerMode: core.TimerNone, Seed: 1,
	})
	tb.Cleanup(e.Shutdown)
	app := e.NewApp("srv")
	rec = loadgen.NewRecorder(0)
	gen := loadgen.New(100_000, server.USRClasses(), 64, 1)
	if direct {
		server.FeedDirect(gen, m.Clock, app, rec, 0)
	} else {
		nic := netsim.NewNIC(m.Clock, m.Cost, 2)
		server.NewThreadPerRequest(app, nic, rec, server.RunService)
		server.Feed(gen, m.Clock, nic, 0)
	}
	tb.Cleanup(gen.Stop)

	var horizon simtime.Time
	step = func() {
		horizon += simtime.Time(tprWindow)
		e.RunUntil(horizon, never)
	}
	for i := 0; i < 50; i++ {
		step()
	}
	return rec, step
}

// TestThreadPerRequestSteadyStateAllocs pins the allocation-free request
// paths: once warm, a window of ~100 requests, fed through the NIC or
// directly — each one a quick thread created, enqueued, dispatched, run and
// exited, through pooled request records, thread descriptors, policy task
// data and ring runqueues — allocates nothing.
func TestThreadPerRequestSteadyStateAllocs(t *testing.T) {
	for _, tc := range []struct {
		name   string
		direct bool
	}{{"NIC", false}, {"FeedDirect", true}} {
		t.Run(tc.name, func(t *testing.T) {
			rec, step := newTPRFixture(t, tc.direct)
			before := rec.Done
			allocs := testing.AllocsPerRun(20, step)
			if served := rec.Done - before; served < 20*50 {
				t.Fatalf("only %d requests served in 21 windows; the fixture is idle", served)
			}
			if allocs != 0 {
				t.Fatalf("steady-state window of ~100 requests allocates %.0f objects, want 0", allocs)
			}
		})
	}
}

// BenchmarkThreadPerRequest measures one steady-state window (~100
// requests) of the thread-per-request path; allocs/op must stay 0.
func BenchmarkThreadPerRequest(b *testing.B) {
	rec, step := newTPRFixture(b, false)
	before := rec.Done
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
	b.StopTimer()
	b.ReportMetric(float64(rec.Done-before)/float64(b.N), "reqs/op")
}
