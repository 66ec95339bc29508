package bench

// Integration tests asserting the paper's headline *invariants* at
// miniature scale — the properties that must hold for the reproduction to
// be meaningful, run fast enough for `go test`.

import (
	"testing"

	"skyloft/internal/apps/server"
	"skyloft/internal/simtime"
)

func TestInvariantSkyloftBeatsLinuxWakeup(t *testing.T) {
	sky := SchbenchSkyloft(SkyloftCFS, 0, 32, 8, 1)
	lin := SchbenchLinux("linux-cfs", 32, 8, 1)
	if sky.Hist.P99()*10 > lin.Hist.P99() {
		t.Fatalf("Fig5 invariant broken: skyloft p99 %v vs linux %v",
			sky.Hist.P99(), lin.Hist.P99())
	}
}

func TestInvariantFig6SliceMonotonic(t *testing.T) {
	p99 := func(slice simtime.Duration) simtime.Duration {
		r := SchbenchSkyloft(SkyloftRR, slice, 32, 8, 1)
		return r.Hist.P99()
	}
	small := p99(25 * simtime.Microsecond)
	large := p99(400 * simtime.Microsecond)
	fifo := SchbenchSkyloft(SkyloftFIFO, 0, 32, 8, 1).Hist.P99()
	if !(small < large && large < fifo) {
		t.Fatalf("Fig6 invariant broken: 25us=%v 400us=%v fifo=%v", small, large, fifo)
	}
}

func TestInvariantFig7aOrdering(t *testing.T) {
	load := 0.85 * Capacity(Fig7Workers, server.DispersiveClasses())
	run := func(s SynthSystem) LoadPoint {
		return RunSynthetic(SynthConfig{
			System: s, Rate: load, Duration: 80 * simtime.Millisecond, Seed: 1,
		})
	}
	sky := run(SynthSkyloft)
	ghost := run(SynthGhost)
	linux := run(SynthLinuxCFS)
	if !(sky.P99 < ghost.P99 && ghost.P99 < linux.P99) {
		t.Fatalf("Fig7a ordering broken: sky=%.1f ghost=%.1f linux=%.1f",
			sky.P99, ghost.P99, linux.P99)
	}
	// Throughput keeps up with offered load for all three at 85%.
	for _, p := range []LoadPoint{sky, ghost} {
		if p.Throughput < 0.9*load {
			t.Fatalf("throughput collapse: %.0f of %.0f", p.Throughput, load)
		}
	}
}

func TestInvariantFig7cShares(t *testing.T) {
	low := RunSynthetic(SynthConfig{
		System: SynthSkyloft, Rate: 0.2 * Capacity(Fig7Workers, server.DispersiveClasses()),
		Duration: 60 * simtime.Millisecond, WithBE: true, Seed: 1,
	})
	high := RunSynthetic(SynthConfig{
		System: SynthSkyloft, Rate: 0.8 * Capacity(Fig7Workers, server.DispersiveClasses()),
		Duration: 60 * simtime.Millisecond, WithBE: true, Seed: 1,
	})
	if !(low.BEShare > high.BEShare && low.BEShare > 0.5 && high.BEShare < 0.5) {
		t.Fatalf("Fig7c invariant broken: low-load share %.2f, high-load %.2f",
			low.BEShare, high.BEShare)
	}
	// Shinjuku's BE share is identically zero.
	shin := RunSynthetic(SynthConfig{
		System: SynthShinjuku, Rate: 0.5 * Capacity(Fig7Workers, server.DispersiveClasses()),
		Duration: 40 * simtime.Millisecond, WithBE: true, Seed: 1,
	})
	if shin.BEShare != 0 {
		t.Fatalf("Shinjuku granted BE cores: %.3f", shin.BEShare)
	}
}

func TestInvariantFig8aParity(t *testing.T) {
	load := 0.7 * Capacity(Fig8aWorkers, server.USRClasses())
	sky := RunNetApp(NetConfig{System: NetSkyloft, App: "memcached",
		Workers: Fig8aWorkers, Rate: load, Duration: 60 * simtime.Millisecond, Seed: 1})
	she := RunNetApp(NetConfig{System: NetShenango, App: "memcached",
		Workers: Fig8aWorkers, Rate: load, Duration: 60 * simtime.Millisecond, Seed: 1})
	// Parity within 25% on p99, Skyloft not worse.
	if sky.P99 > she.P99*1.05 {
		t.Fatalf("Fig8a: skyloft p99 %.1f worse than shenango %.1f", sky.P99, she.P99)
	}
	if she.P99 > sky.P99*1.5 {
		t.Fatalf("Fig8a: gap too large (%.1f vs %.1f) — they should be close", sky.P99, she.P99)
	}
}

func TestInvariantFig8bPreemptionWins(t *testing.T) {
	load := 0.75 * Capacity(Fig8bWorkers, server.RocksDBClasses())
	sky := RunNetApp(NetConfig{System: NetSkyloftPre, App: "rocksdb",
		Workers: Fig8bWorkers, Quantum: 5 * simtime.Microsecond,
		Rate: load, Duration: 80 * simtime.Millisecond, Seed: 1})
	she := RunNetApp(NetConfig{System: NetShenango, App: "rocksdb",
		Workers: Fig8bWorkers, Rate: load, Duration: 80 * simtime.Millisecond, Seed: 1})
	if sky.P999Slow*3 > she.P999Slow {
		t.Fatalf("Fig8b invariant broken: skyloft slowdown %.1f vs shenango %.1f",
			sky.P999Slow, she.P999Slow)
	}
}

func TestInvariantQuantumOrdering(t *testing.T) {
	load := 0.6 * Capacity(Fig8bWorkers, server.RocksDBClasses())
	slow := func(q simtime.Duration) float64 {
		return RunNetApp(NetConfig{System: NetSkyloftPre, App: "rocksdb",
			Workers: Fig8bWorkers, Quantum: q, Rate: load,
			Duration: 80 * simtime.Millisecond, Seed: 1}).P999Slow
	}
	q5, q30 := slow(5*simtime.Microsecond), slow(30*simtime.Microsecond)
	if q5 >= q30 {
		t.Fatalf("smaller quantum should lower slowdown: 5us=%.1f 30us=%.1f", q5, q30)
	}
}

func TestTable6MatchesModel(t *testing.T) {
	rows := Table6()
	byName := map[string]MechRow{}
	for _, r := range rows {
		byName[r.Name] = r
	}
	// The composed mechanisms must reproduce the Table 6 inputs (±1 cycle
	// of rounding).
	checks := []struct {
		name string
		recv float64
	}{
		{"user-ipi", 661}, {"user-ipi-xnuma", 883}, {"kernel-ipi", 1582},
		{"signal", 6359}, {"user-timer", 642},
	}
	for _, c := range checks {
		r, ok := byName[c.name]
		if !ok {
			t.Fatalf("missing row %s", c.name)
		}
		if r.Receive < c.recv-2 || r.Receive > c.recv+2 {
			t.Errorf("%s receive = %.0f cycles, want ~%.0f", c.name, r.Receive, c.recv)
		}
		if c.name != "user-timer" && r.Delivery <= r.Receive {
			t.Errorf("%s delivery %.0f not > receive %.0f", c.name, r.Delivery, r.Receive)
		}
	}
	// The paper's ordering: user timer < user IPI < kernel IPI < signal.
	if !(byName["user-timer"].Receive < byName["user-ipi"].Receive &&
		byName["user-ipi"].Receive < byName["kernel-ipi"].Receive &&
		byName["kernel-ipi"].Receive < byName["signal"].Receive) {
		t.Fatal("Table 6 receive-cost ordering broken")
	}
}

func TestTable7Orderings(t *testing.T) {
	rows := Table7()
	for _, r := range rows {
		if r.Skyloft <= 0 || r.Pthread <= 0 {
			t.Fatalf("%s: non-positive measurement", r.Op)
		}
		if r.Op == "mutex" {
			continue // uncontended atomic: comparable everywhere
		}
		if r.Skyloft >= r.Pthread {
			t.Errorf("%s: skyloft %.0f not < pthread %.0f", r.Op, r.Skyloft, r.Pthread)
		}
	}
}

func TestInterAppSwitchNearPaper(t *testing.T) {
	d := InterAppSwitch()
	// 1,905 ns kernel path + engine pick/switch: expect 1.9–2.2 µs.
	if d < 1900 || d > 2300 {
		t.Fatalf("inter-app switch %v, want ~2us", d)
	}
}

func TestTable4CountsPolicies(t *testing.T) {
	rows := Table4()
	if len(rows) < 6 {
		t.Fatalf("Table4 found %d policies", len(rows))
	}
	for _, r := range rows {
		if r.Lines <= 0 || r.Lines > 1000 {
			t.Errorf("%s: implausible LoC %d", r.Policy, r.Lines)
		}
	}
}
