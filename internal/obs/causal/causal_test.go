package causal

import (
	"testing"

	"skyloft/internal/netsim"
	"skyloft/internal/simtime"
	"skyloft/internal/trace"
)

// serveOne drives one NIC-path journey through the tracer's public hooks:
// arrival, datapath delivery, binding to a fresh thread, one dispatch on
// cpu, the reply, then the thread's exit. Its sojourn is 10+5+svc ns.
func serveOne(tr *Tracer, seq uint64, at simtime.Time, cpu, task int, svc simtime.Duration) {
	p := netsim.Packet{Seq: seq, Arrive: at, Service: svc, Flow: seq}
	tr.PacketArrived(p, 0)
	tr.PacketDelivered(p, 0, at+10)
	tr.BindPacket(seq, task, at+10)
	tr.OnEvent(trace.Event{At: at + 15, Kind: trace.Dispatch, CPU: cpu, Task: task})
	tr.ReplyPacket(seq, at+15+simtime.Time(svc))
	tr.OnEvent(trace.Event{At: at + 15 + simtime.Time(svc), Kind: trace.Exit, CPU: cpu, Task: task})
}

// TestTracerSteadyStateAllocs: in request mode, a journey that does not
// enter the top-K allocates nothing — journey records and their hops
// arrays are recycled at finish.
func TestTracerSteadyStateAllocs(t *testing.T) {
	tr := New(Config{K: 4})
	seq := uint64(0)
	at := simtime.Time(0)
	next := func(svc simtime.Duration) {
		seq++
		at += 1000
		serveOne(tr, seq, at, int(seq%2), 100+int(seq%3), svc)
	}
	// Fill the top-K with slow journeys, then warm the pools and maps.
	for i := 0; i < 4; i++ {
		next(500)
	}
	for i := 0; i < 100; i++ {
		next(50)
	}
	allocs := testing.AllocsPerRun(1000, func() { next(50) })
	if allocs != 0 {
		t.Fatalf("a finished journey outside the top-K allocates %.1f objects, want 0", allocs)
	}
	if tr.Completed() != seq || tr.InFlight() != 0 {
		t.Fatalf("completed %d of %d journeys, %d in flight", tr.Completed(), seq, tr.InFlight())
	}
}

// TestExemplarHopsSurviveRecycling: an exemplar owns its hops. The
// journey's hops array goes back to the pool at finish and is overwritten
// by later journeys, so offer must copy it into the exemplar.
func TestExemplarHopsSurviveRecycling(t *testing.T) {
	tr := New(Config{K: 1})
	serveOne(tr, 1, 1000, 3, 7, 900) // the slow one: the only exemplar
	want := tr.Exemplars()[0]
	if len(want.Hops) != 1 || want.Hops[0].CPU != 3 {
		t.Fatalf("exemplar hops = %+v, want one hop on cpu 3", want.Hops)
	}
	wantHop := want.Hops[0]
	for i := uint64(2); i < 50; i++ {
		serveOne(tr, i, simtime.Time(i)*1000, 1, 8, 20)
	}
	got := tr.Exemplars()[0]
	if got.ID != want.ID || len(got.Hops) != 1 || got.Hops[0] != wantHop {
		t.Fatalf("exemplar changed after recycling: got %+v, want hop %+v", got, wantHop)
	}
}
