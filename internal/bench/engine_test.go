package bench

import (
	"fmt"
	"testing"

	"skyloft/internal/apps/server"
	"skyloft/internal/hw"
	"skyloft/internal/obs"
	"skyloft/internal/obs/causal"
	"skyloft/internal/simtime"
	"skyloft/internal/trace"
)

// Attach-only witnesses for the observers: a run with the causal tracer or
// the live bus attached must schedule exactly what the bare run schedules
// (the bus adds only its own window-boundary ticks).

// runSignature is one run's behavioural fingerprint.
type runSignature struct {
	traceHash  uint64
	traceTotal uint64
	spanHash   uint64
	dispatched uint64
}

func (s runSignature) String() string {
	return fmt.Sprintf("trace=%016x/%d spans=%016x dispatched=%d",
		s.traceHash, s.traceTotal, s.spanHash, s.dispatched)
}

func signatureOf(m *hw.Machine, tr *trace.Ring) runSignature {
	return runSignature{
		traceHash:  tr.Hash(),
		traceTotal: tr.Total(),
		spanHash:   obs.BuildSpans(tr.Events()).Hash(),
		dispatched: m.Clock.Dispatched(),
	}
}

// fig7Signature runs the Fig. 7 quick config, optionally with the causal
// request tracer attached.
func fig7Signature(seed uint64, ctr *causal.Tracer) runSignature {
	m := hw.NewMachine(hw.DefaultConfig())
	tr := trace.New(1 << 16)
	RunSynthetic(SynthConfig{
		System: SynthSkyloft, Rate: 0.5 * Capacity(Fig7Workers, server.DispersiveClasses()),
		Duration: 5 * simtime.Millisecond, Warmup: simtime.Millisecond,
		Seed: seed, machine: m, tr: tr, ct: ctr,
	})
	return signatureOf(m, tr)
}

// The report's engine probe feeds the regression gate: the live-bus run
// must cost no more than the 5% overhead ceiling and publish a full window
// sequence; the causal run must cost exactly nothing (the tracer schedules
// no events) and complete nearly every journey.
func TestEngineProbeObserverOverhead(t *testing.T) {
	base, live, causalRun := engineProbe(1)
	if live.dispatched < base.dispatched {
		t.Fatalf("bus-attached run dispatched fewer events (%d) than bare (%d)",
			live.dispatched, base.dispatched)
	}
	extra := float64(live.dispatched-base.dispatched) / float64(base.dispatched)
	if extra > 0.05 {
		t.Fatalf("live bus overhead %.2f%% exceeds the 5%% ceiling", 100*extra)
	}
	if live.liveWindows == 0 {
		t.Fatal("bus-attached probe published no windows")
	}
	if causalRun.dispatched != base.dispatched {
		t.Fatalf("causal-attached run dispatched %d events, bare %d — the tracer must schedule nothing",
			causalRun.dispatched, base.dispatched)
	}
	if causalRun.causalCoverage < 0.9 {
		t.Fatalf("causal probe coverage %.3f, want >= 0.9", causalRun.causalCoverage)
	}
	if causalRun.causalExemplars == 0 {
		t.Fatal("causal probe retained no exemplars")
	}
}

// netSignature runs a quick Fig. 8a Memcached config (the kernel-bypass NIC
// path: packet sequence numbers assigned at netsim arrival, RSS steering,
// ingress rings, thread-per-request service) — optionally with the causal
// request tracer attached over the NIC observer and server callbacks.
func netSignature(seed uint64, ctr *causal.Tracer) runSignature {
	m := hw.NewMachine(hw.DefaultConfig())
	tr := trace.New(1 << 16)
	RunNetApp(NetConfig{
		System: NetSkyloft, App: "memcached", Workers: Fig8aWorkers,
		Rate:     0.5 * Capacity(Fig8aWorkers, server.USRClasses()),
		Duration: 5 * simtime.Millisecond, Warmup: simtime.Millisecond,
		Seed: seed, machine: m, tr: tr, ct: ctr,
	})
	return signatureOf(m, tr)
}

// TestCausalDifferentialFig8 is the NIC-path twin of the Fig. 7 causal
// differential: request IDs are born at netsim packet arrival and the
// journey crosses RSS steering, the ingress ring, and the serving thread.
// Attaching the tracer must leave the schedule untouched, and every
// retained exemplar must carry its RSS ring and a non-empty hop chain.
func TestCausalDifferentialFig8(t *testing.T) {
	for _, seed := range []uint64{1, 5, 13, 21} {
		bare := netSignature(seed, nil)
		tracer := causal.New(causal.Config{})
		if traced := netSignature(seed, tracer); traced != bare {
			t.Fatalf("seed %d: causal tracer perturbed the NIC run:\n  bare:   %v\n  traced: %v",
				seed, bare, traced)
		}
		if tracer.Completed() == 0 {
			t.Fatalf("seed %d: tracer completed no request journeys", seed)
		}
		if cov := tracer.Coverage(); cov < 0.9 {
			t.Fatalf("seed %d: request coverage %.3f, want >= 0.9", seed, cov)
		}
		for _, ex := range tracer.Exemplars() {
			if ex.Kind != "request" {
				t.Fatalf("seed %d: NIC exemplar kind %q, want request", seed, ex.Kind)
			}
			if ex.Ring < 0 {
				t.Fatalf("seed %d: request %d lost its RSS ring", seed, ex.ID)
			}
			if len(ex.Hops) == 0 {
				t.Fatalf("seed %d: request %d has no dispatch hops", seed, ex.ID)
			}
		}
	}
}

// TestCausalDifferentialFig7 pins the causal tracer's attach-only contract
// on the Fig. 7 quick config across four seeds: attaching the tracer leaves
// the schedule untouched (trace/span/dispatch fingerprints equal the
// untraced run's), and the tracer completes journeys and retains
// exemplars. The edges-sum-to-sojourn invariant is enforced by a panic
// inside the tracer on every completed journey, so this test also
// exercises it thousands of times.
func TestCausalDifferentialFig7(t *testing.T) {
	for _, seed := range []uint64{1, 2, 5, 13} {
		bare := fig7Signature(seed, nil)
		tracer := causal.New(causal.Config{})
		if traced := fig7Signature(seed, tracer); traced != bare {
			t.Fatalf("seed %d: causal tracer perturbed the run:\n  bare:   %v\n  traced: %v",
				seed, bare, traced)
		}
		if tracer.Completed() == 0 {
			t.Fatalf("seed %d: tracer completed no journeys", seed)
		}
		if len(tracer.Exemplars()) == 0 {
			t.Fatalf("seed %d: tracer retained no exemplars", seed)
		}
	}
}
