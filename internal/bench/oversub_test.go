package bench

import (
	"testing"

	"skyloft/internal/simtime"
)

// TestOversubGate is the `make oversub` gate: every oversubscription preset
// must replay bit-identically, hold every scheduler and lease invariant,
// actually inject faults, demonstrably engage forced revocation (the faults
// really broke cooperation), and keep the measured reclaim p99 inside the
// protocol's configured bound.
func TestOversubGate(t *testing.T) {
	results, failures := OversubGate(1, 0, nil)
	for _, f := range failures {
		t.Errorf("oversub gate: %s", f)
	}
	if len(results) != len(OversubPresetNames()) {
		t.Fatalf("gate ran %d presets, want %d", len(results), len(OversubPresetNames()))
	}
	for _, r := range results {
		t.Logf("%-22s grants=%d reclaims=%d coop=%d forced=%d evict=%d reclaim-p99=%.1fµs (bound %.0fµs)",
			r.Preset, r.Grants, r.Reclaims, r.CooperativeReturns,
			r.ForcedRevocations, r.Evictions, r.ReclaimP99Us, r.ReclaimBoundUs)
	}
}

// TestOversubDeterministicReplay pins seeding: the same preset at the same
// seed is bit-identical down to the injection counters; a different seed
// diverges (the faults and workload are really seeded).
func TestOversubDeterministicReplay(t *testing.T) {
	a, err := RunOversub("oversub-multiruntime", 7, 2*simtime.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunOversub("oversub-multiruntime", 7, 2*simtime.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if a.TraceHash != b.TraceHash || a.Events != b.Events || a.Dispatched != b.Dispatched {
		t.Fatalf("same seed diverged: %016x/%d/%d vs %016x/%d/%d",
			a.TraceHash, a.Events, a.Dispatched, b.TraceHash, b.Events, b.Dispatched)
	}
	if a.Injected != b.Injected {
		t.Fatalf("same seed, different injections: %+v vs %+v", a.Injected, b.Injected)
	}
	c, err := RunOversub("oversub-multiruntime", 8, 2*simtime.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if c.TraceHash == a.TraceHash {
		t.Fatalf("different seeds produced identical trace hash %016x", a.TraceHash)
	}
}

// TestOversubMultiRuntimeLifecycle pins the cross-runtime mechanics: cores
// really move between the runtimes (grants and reclaims both non-zero),
// forced revocation ends with the manager's accounting balanced (every
// reclaim eventually returned — nothing stuck in Reclaiming/Revoking would
// keep deadline misses at zero only briefly), the two runtimes' invariant
// checkers both audited the whole run, and lending pays: the tenant gets
// more CPU than its two home CPUs could give it under a static split.
func TestOversubMultiRuntimeLifecycle(t *testing.T) {
	r, err := RunOversub("oversub-multiruntime", 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if r.Grants == 0 || r.Reclaims == 0 {
		t.Fatalf("no cross-runtime lending happened: grants=%d reclaims=%d", r.Grants, r.Reclaims)
	}
	if r.ForcedRevocations == 0 {
		t.Fatalf("dropped vacate IPIs never forced a revocation: %+v", r)
	}
	if r.DeadlineMisses != 0 {
		t.Fatalf("%d reclaims missed the %vµs bound", r.DeadlineMisses, r.ReclaimBoundUs)
	}
	if r.Violations != 0 {
		t.Fatalf("%d invariant violations: %v", r.Violations, r.ViolationMsgs)
	}
	if r.LeaseEvents == 0 {
		t.Fatal("lease transitions left no trace events")
	}
	// Something must have completed the reclaims: cooperative returns,
	// or evictions at the end of the forced path.
	if r.VoluntaryReturns+r.CooperativeReturns == 0 && r.Evictions == 0 {
		t.Fatalf("no lease ever returned: %+v", r)
	}
	if r.TenantCores < 3.0 {
		t.Fatalf("tenant ran on %.2f cores, want >= 3.0 (a static split caps it at 2.0)", r.TenantCores)
	}
}
