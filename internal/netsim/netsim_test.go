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

// TestNICOverlappingDeliveriesStayInOrder sends packets closer together
// than the datapath delay, so the in-flight queue never drains and its
// buffer wraps many times: every packet must still reach its RSS ring
// exactly once, in arrival order, exactly one delay after it arrived.
func TestNICOverlappingDeliveriesStayInOrder(t *testing.T) {
	const (
		n     = 10_000
		gap   = 100 * simtime.Nanosecond
		rings = 4
		flows = 7
	)
	clock := simtime.NewClock()
	cost := cycles.Default()
	delay := cost.NICPoll + cost.RingHop + cost.NetStack
	if delay <= 2*gap {
		t.Fatalf("delay %v must span several arrivals %v apart", delay, gap)
	}
	nic := NewNIC(clock, cost, rings)
	var lastSeq uint64
	perRing := make([]int, rings)
	for i := 0; i < rings; i++ {
		nic.OnRing(i, func(p Packet) {
			if p.Seq != lastSeq+1 {
				t.Fatalf("ring %d got seq %d after %d", i, p.Seq, lastSeq)
			}
			lastSeq = p.Seq
			k := p.Seq - 1
			if p.Arrive != simtime.Time(k)*gap {
				t.Fatalf("seq %d arrived at %v, want %v", p.Seq, p.Arrive, simtime.Time(k)*gap)
			}
			if now := clock.Now(); now != p.Arrive+delay {
				t.Fatalf("seq %d delivered at %v, want %v", p.Seq, now, p.Arrive+delay)
			}
			if p.Flow != k%flows || p.Service != simtime.Duration(k) {
				t.Fatalf("seq %d carries another packet's fields: %+v", p.Seq, p)
			}
			if want := int(rssHash(p.Flow) % rings); i != want {
				t.Fatalf("seq %d on ring %d, RSS says %d", p.Seq, i, want)
			}
			perRing[i]++
		})
	}
	var sent uint64
	var send func()
	send = func() {
		nic.Deliver(Packet{Flow: sent % flows, Service: simtime.Duration(sent)})
		if sent++; sent < n {
			clock.After(gap, send)
		}
	}
	clock.At(0, send)
	clock.Run(simtime.Infinity)
	if lastSeq != n || nic.Delivered() != n || nic.Dropped() != 0 {
		t.Fatalf("delivered through seq %d, counters %d/%d, want %d/0",
			lastSeq, nic.Delivered(), nic.Dropped(), n)
	}
	for i, c := range perRing {
		if c == 0 {
			t.Fatalf("ring %d received nothing: %v", i, perRing)
		}
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
