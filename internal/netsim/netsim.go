// Package netsim models the kernel-bypass network datapath of §3.5: a
// DPDK-style NIC polled on a dedicated core, RSS steering into per-core
// ingress rings, and the blocking ring a worker-pool server pops. The
// paper's networking experiments depend on the arrival process, per-packet
// datapath costs and steering, not on wire-level detail, so packets carry
// no bytes and protocol processing is a per-packet cost.
package netsim

import (
	"skyloft/internal/cycles"
	"skyloft/internal/fifo"
	"skyloft/internal/sched"
	"skyloft/internal/simtime"
)

// Packet is one request on the wire.
type Packet struct {
	Seq     uint64
	Arrive  simtime.Time     // NIC arrival time (latency measurements start here)
	Service simtime.Duration // application service demand
	Class   int              // request class (e.g. GET/SET/SCAN)
	Flow    uint64           // RSS hash input (connection identity)
}

// Waker lets external events (packet arrivals) wake simulated threads; the
// simulated kernel implements it for its worker-pool server.
type Waker interface {
	ExternalWake(t *sched.Thread)
}

// Observer watches the datapath for per-request causal tracing: arrival is
// the instant the NIC accepts a packet (after sequence assignment and RSS
// steering), delivery the instant the ring handler receives it. Observers
// must be attach-only — they read packet identity, never mutate NIC state.
type Observer interface {
	PacketArrived(p Packet, ring int)
	PacketDelivered(p Packet, ring int, at simtime.Time)
}

// NIC is the simulated device. In the default polling mode (§3.5) a
// dedicated core polls the device and delivered packets pay the poll + RSS
// ring hop + protocol processing costs before the application sees them. In
// interrupt mode (§6 "peripheral interrupts") the device raises an MSI
// delegated to user space on the ring's core instead; the receiving core
// drains the ring in its user-interrupt handler.
type NIC struct {
	clock *simtime.Clock
	cost  cycles.Model
	rings []func(Packet) // per-ring handler (installed by the app/runtime)
	seq   uint64

	// interrupt mode
	irqPost func(ring int)
	irqBuf  [][]Packet

	// polling-mode in-flight packets. The datapath delay is a constant, so
	// deliveries complete strictly FIFO and one reusable callback popping
	// from this queue replaces a closure per packet.
	inflight  fifo.Ring[inflightPkt]
	deliverFn func()

	delivered uint64
	dropped   uint64
	obs       Observer
}

type inflightPkt struct {
	ring int
	p    Packet
}

// NewNIC creates a NIC with n RSS rings.
func NewNIC(clock *simtime.Clock, cost cycles.Model, n int) *NIC {
	if n <= 0 {
		panic("netsim: NIC needs at least one ring")
	}
	nic := &NIC{clock: clock, cost: cost, rings: make([]func(Packet), n)}
	nic.deliverFn = func() {
		ip, _ := nic.inflight.PopFront()
		nic.Handle(ip.ring, ip.p)
	}
	return nic
}

// OnRing installs the handler invoked for packets steered to ring i.
func (n *NIC) OnRing(i int, fn func(Packet)) { n.rings[i] = fn }

// SetObserver installs the datapath observer (nil removes it).
func (n *NIC) SetObserver(o Observer) { n.obs = o }

// Now reports the NIC clock's current instant — the delivery instant inside
// an OnRing handler (handlers run synchronously at delivery time).
func (n *NIC) Now() simtime.Time { return n.clock.Now() }

// Rings reports the ring count.
func (n *NIC) Rings() int { return len(n.rings) }

// Delivered reports packets handed to ring handlers; Dropped counts packets
// that arrived on rings with no handler.
func (n *NIC) Delivered() uint64 { return n.delivered }
func (n *NIC) Dropped() uint64   { return n.dropped }

// rssHash is Toeplitz-flavoured mixing of the flow identity.
func rssHash(flow uint64) uint64 {
	flow ^= flow >> 33
	flow *= 0xFF51AFD7ED558CCD
	flow ^= flow >> 33
	flow *= 0xC4CEB9FE1A85EC53
	return flow ^ (flow >> 33)
}

// EnableInterrupts switches the NIC to interrupt-driven delivery: packets
// buffer in per-ring DMA queues and post(ring) raises the ring's MSI. The
// receiving core drains with DrainIRQ/Handle.
func (n *NIC) EnableInterrupts(post func(ring int)) {
	n.irqPost = post
	n.irqBuf = make([][]Packet, len(n.rings))
}

// DrainIRQ removes and returns all packets buffered on ring (called from
// the ring core's interrupt handler).
func (n *NIC) DrainIRQ(ring int) []Packet {
	pkts := n.irqBuf[ring]
	n.irqBuf[ring] = nil
	return pkts
}

// Handle invokes ring's application handler for p.
func (n *NIC) Handle(ring int, p Packet) {
	h := n.rings[ring]
	if h == nil {
		n.dropped++
		return
	}
	n.delivered++
	if n.obs != nil {
		n.obs.PacketDelivered(p, ring, n.clock.Now())
	}
	h(p)
}

// Deliver injects a packet at the NIC at the current instant. In polling
// mode the handler runs after the poll + ring + stack datapath delay on
// the ring selected by RSS; in interrupt mode the packet is DMA'd into the
// ring buffer and the MSI raised.
func (n *NIC) Deliver(p Packet) {
	n.seq++
	p.Seq = n.seq
	p.Arrive = n.clock.Now()
	ring := int(rssHash(p.Flow) % uint64(len(n.rings)))
	if n.obs != nil {
		n.obs.PacketArrived(p, ring)
	}
	if n.irqPost != nil {
		n.irqBuf[ring] = append(n.irqBuf[ring], p)
		n.irqPost(ring)
		return
	}
	delay := n.cost.NICPoll + n.cost.RingHop + n.cost.NetStack
	n.inflight.PushBack(inflightPkt{ring: ring, p: p})
	n.clock.After(delay, n.deliverFn)
}

// Ring is a blocking packet queue for worker-pool servers: external pushes
// wake blocked consumers through the engine's Waker.
type Ring struct {
	w       Waker
	items   fifo.Ring[Packet]
	waiters fifo.Ring[*sched.Thread]
}

// NewRing creates a ring bound to a waker.
func NewRing(w Waker) *Ring { return &Ring{w: w} }

// PushExternal appends a packet from outside thread context (the NIC) and
// wakes one blocked consumer.
func (r *Ring) PushExternal(p Packet) {
	r.items.PushBack(p)
	if t, ok := r.waiters.PopFront(); ok {
		r.w.ExternalWake(t)
	}
}

// Pop removes the head packet, blocking the calling thread while empty.
func (r *Ring) Pop(e sched.Env) Packet {
	for r.items.Len() == 0 {
		r.waiters.PushBack(e.Self())
		e.Block()
	}
	p, _ := r.items.PopFront()
	return p
}

// TryPop removes the head packet without blocking.
func (r *Ring) TryPop() (Packet, bool) { return r.items.PopFront() }

// Len reports queued packets.
func (r *Ring) Len() int { return r.items.Len() }
