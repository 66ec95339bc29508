package netsim

import (
	"testing"

	"skyloft/internal/cycles"
	"skyloft/internal/sched"
	"skyloft/internal/simtime"
)

func TestNICDeliveryDelayAndStamp(t *testing.T) {
	clock := simtime.NewClock()
	cost := cycles.Default()
	nic := NewNIC(clock, cost, 1)
	var got Packet
	var at simtime.Time
	nic.OnRing(0, func(p Packet) { got, at = p, clock.Now() })
	clock.At(1000, func() {
		nic.Deliver(Packet{Service: 42, Class: 3, Flow: 7})
	})
	clock.Run(simtime.Infinity)
	if got.Arrive != 1000 {
		t.Fatalf("arrive stamp = %v", got.Arrive)
	}
	want := simtime.Time(1000) + cost.NICPoll + cost.RingHop + cost.NetStack
	if at != want {
		t.Fatalf("delivered at %v, want %v", at, want)
	}
	if got.Seq != 1 || got.Service != 42 || got.Class != 3 {
		t.Fatalf("packet fields lost: %+v", got)
	}
	if nic.Delivered() != 1 || nic.Dropped() != 0 {
		t.Fatal("delivery counters wrong")
	}
}

func TestNICRSSSpreadsFlows(t *testing.T) {
	clock := simtime.NewClock()
	nic := NewNIC(clock, cycles.Default(), 4)
	counts := make([]int, 4)
	for i := 0; i < 4; i++ {
		i := i
		nic.OnRing(i, func(Packet) { counts[i]++ })
	}
	for f := 0; f < 4000; f++ {
		nic.Deliver(Packet{Flow: uint64(f)})
	}
	clock.Run(simtime.Infinity)
	for i, c := range counts {
		if c < 800 || c > 1200 {
			t.Fatalf("RSS imbalance on ring %d: %v", i, counts)
		}
	}
}

func TestNICSameFlowSameRing(t *testing.T) {
	clock := simtime.NewClock()
	nic := NewNIC(clock, cycles.Default(), 8)
	rings := map[int]bool{}
	for i := 0; i < 8; i++ {
		i := i
		nic.OnRing(i, func(Packet) { rings[i] = true })
	}
	for n := 0; n < 50; n++ {
		nic.Deliver(Packet{Flow: 12345})
	}
	clock.Run(simtime.Infinity)
	if len(rings) != 1 {
		t.Fatalf("one flow hit %d rings (RSS must be deterministic per flow)", len(rings))
	}
}

func TestNICDropsWithoutHandler(t *testing.T) {
	clock := simtime.NewClock()
	nic := NewNIC(clock, cycles.Default(), 2)
	nic.OnRing(0, func(Packet) {})
	for f := 0; f < 100; f++ {
		nic.Deliver(Packet{Flow: uint64(f)})
	}
	clock.Run(simtime.Infinity)
	if nic.Dropped() == 0 {
		t.Fatal("packets to unhandled ring should drop")
	}
	if nic.Delivered()+nic.Dropped() != 100 {
		t.Fatalf("accounting: %d + %d != 100", nic.Delivered(), nic.Dropped())
	}
}

// fakeWaker records external wakes.
type fakeWaker struct{ woken []*sched.Thread }

func (f *fakeWaker) ExternalWake(t *sched.Thread) { f.woken = append(f.woken, t) }

func TestRingPushWakesWaiter(t *testing.T) {
	w := &fakeWaker{}
	r := NewRing(w)
	if _, ok := r.TryPop(); ok {
		t.Fatal("empty ring TryPop succeeded")
	}
	// Simulate a parked consumer (engine-level bookkeeping only).
	th := &sched.Thread{ID: 1}
	r.waiters.PushBack(th)
	r.PushExternal(Packet{Seq: 9})
	if len(w.woken) != 1 || w.woken[0] != th {
		t.Fatal("push did not wake the waiter")
	}
	p, ok := r.TryPop()
	if !ok || p.Seq != 9 {
		t.Fatal("packet lost")
	}
	if r.Len() != 0 {
		t.Fatal("ring not drained")
	}
}
