package netsim

// The lite user-space network stack of §3.5: a Wire links two hosts; each
// host runs a Stack that parses real Ethernet/IPv4 frames and demultiplexes
// UDP datagrams and TCP segments to sockets with POSIX-flavoured blocking
// semantics (receivers park via sched.Env and are woken through the
// engine's Waker, like everything else in the datapath).

import (
	"fmt"

	"skyloft/internal/fifo"
	"skyloft/internal/rng"
	"skyloft/internal/sched"
	"skyloft/internal/simtime"
)

// Wire is a full-duplex point-to-point link with propagation latency and
// optional random loss (failure injection).
type Wire struct {
	clock    Clock
	latency  simtime.Duration
	lossRate float64
	r        *rng.Rand
	ends     [2]func([]byte)

	// Frames in flight. Latency is a constant, so arrivals are strictly
	// FIFO and one reusable callback popping this queue replaces a closure
	// per frame.
	inflight     []wireFrame
	inflightHead int
	arriveFn     func()

	sent    uint64
	dropped uint64
}

type wireFrame struct {
	rx   func([]byte)
	data []byte
}

// NewWire creates a link with the given one-way latency.
func NewWire(clock Clock, latency simtime.Duration) *Wire {
	w := &Wire{clock: clock, latency: latency, r: rng.New(0xB17E)}
	w.arriveFn = func() {
		f := w.inflight[w.inflightHead]
		w.inflight[w.inflightHead] = wireFrame{}
		w.inflightHead++
		if w.inflightHead == len(w.inflight) {
			w.inflight = w.inflight[:0]
			w.inflightHead = 0
		}
		f.rx(f.data)
	}
	return w
}

// SetLoss makes the wire drop each frame with probability p.
func (w *Wire) SetLoss(p float64, seed uint64) {
	w.lossRate = p
	w.r = rng.New(seed)
}

// Dropped reports frames lost on the wire.
func (w *Wire) Dropped() uint64 { return w.dropped }

// Sent reports frames sent (including dropped ones).
func (w *Wire) Sent() uint64 { return w.sent }

func (w *Wire) attach(side int, rx func([]byte)) { w.ends[side] = rx }

func (w *Wire) send(side int, frame []byte) {
	w.sent++
	if w.lossRate > 0 && w.r.Bernoulli(w.lossRate) {
		w.dropped++
		return
	}
	other := w.ends[1-side]
	if other == nil {
		w.dropped++
		return
	}
	// Copy: the sender may reuse its buffer.
	dup := append([]byte(nil), frame...)
	w.inflight = append(w.inflight, wireFrame{rx: other, data: dup})
	w.clock.After(w.latency, w.arriveFn)
}

// Stack is one host's protocol endpoint.
type Stack struct {
	IPAddr  IP
	MACAddr MAC

	clock Clock
	waker Waker // nil when used purely event-driven
	wire  *Wire
	side  int

	udp       map[uint16]*UDPSocket
	listeners map[uint16]*TCPListener
	conns     map[connKey]*TCPConn
	nextPort  uint16
	ipID      uint16

	rxFrames uint64
	rxErrors uint64
}

type connKey struct {
	localPort  uint16
	remoteIP   IP
	remotePort uint16
}

// NewStack creates a host endpoint. waker may be nil if no thread ever
// blocks on this stack's sockets.
func NewStack(clock Clock, waker Waker, ip IP, mac MAC) *Stack {
	return &Stack{
		IPAddr: ip, MACAddr: mac,
		clock: clock, waker: waker,
		udp:       make(map[uint16]*UDPSocket),
		listeners: make(map[uint16]*TCPListener),
		conns:     make(map[connKey]*TCPConn),
		nextPort:  32768,
	}
}

// Attach connects the stack to side (0 or 1) of wire.
func (s *Stack) Attach(wire *Wire, side int) {
	s.wire = wire
	s.side = side
	wire.attach(side, s.rx)
}

// RxErrors reports frames rejected by parsing/validation.
func (s *Stack) RxErrors() uint64 { return s.rxErrors }

// RxFrames reports frames received.
func (s *Stack) RxFrames() uint64 { return s.rxFrames }

func (s *Stack) ephemeralPort() uint16 {
	s.nextPort++
	return s.nextPort
}

// transmit wraps an IP payload and puts it on the wire.
func (s *Stack) transmit(dst IP, proto uint8, payload []byte) {
	s.ipID++
	ip := BuildIPv4(IPv4Header{ID: s.ipID, Protocol: proto, Src: s.IPAddr, Dst: dst}, payload)
	frame := BuildEth(EthHeader{Src: s.MACAddr, EtherType: EtherTypeIPv4}, ip)
	s.wire.send(s.side, frame)
}

// rx is the receive path: parse, validate, demultiplex.
func (s *Stack) rx(frame []byte) {
	s.rxFrames++
	eth, ipPkt, err := ParseEth(frame)
	if err != nil || eth.EtherType != EtherTypeIPv4 {
		s.rxErrors++
		return
	}
	iph, seg, err := ParseIPv4(ipPkt)
	if err != nil || iph.Dst != s.IPAddr {
		s.rxErrors++
		return
	}
	switch iph.Protocol {
	case ProtoUDP:
		h, data, err := ParseUDP(iph.Src, iph.Dst, seg)
		if err != nil {
			s.rxErrors++
			return
		}
		s.rxUDP(iph.Src, h, data)
	case ProtoTCP:
		h, data, err := ParseTCP(iph.Src, iph.Dst, seg)
		if err != nil {
			s.rxErrors++
			return
		}
		s.rxTCP(iph.Src, h, data)
	default:
		s.rxErrors++
	}
}

func (s *Stack) wake(t *sched.Thread) {
	if s.waker == nil {
		panic("netsim: blocking socket operation without a Waker")
	}
	s.waker.ExternalWake(t)
}

// ---- UDP sockets ----

// Datagram is one received UDP message.
type Datagram struct {
	Src     IP
	SrcPort uint16
	Data    []byte
}

// UDPSocket is a bound UDP endpoint.
type UDPSocket struct {
	s       *Stack
	port    uint16
	queue   fifo.Ring[Datagram]
	waiters fifo.Ring[*sched.Thread]
	handler func(Datagram)

	rxCount uint64
}

// BindUDP binds a UDP socket to port (0 picks an ephemeral port).
func (s *Stack) BindUDP(port uint16) (*UDPSocket, error) {
	if port == 0 {
		port = s.ephemeralPort()
	}
	if _, used := s.udp[port]; used {
		return nil, fmt.Errorf("netsim: UDP port %d in use", port)
	}
	u := &UDPSocket{s: s, port: port}
	s.udp[port] = u
	return u, nil
}

// Port reports the bound port.
func (u *UDPSocket) Port() uint16 { return u.port }

// Received reports delivered datagrams.
func (u *UDPSocket) Received() uint64 { return u.rxCount }

// OnDatagram installs a callback invoked for each arriving datagram
// (thread-per-request servers); mutually exclusive with blocking RecvFrom.
func (u *UDPSocket) OnDatagram(fn func(Datagram)) { u.handler = fn }

func (s *Stack) rxUDP(src IP, h UDPHeader, data []byte) {
	u := s.udp[h.DstPort]
	if u == nil {
		s.rxErrors++ // port unreachable
		return
	}
	u.rxCount++
	d := Datagram{Src: src, SrcPort: h.SrcPort, Data: data}
	if u.handler != nil {
		u.handler(d)
		return
	}
	u.queue.PushBack(d)
	if t, ok := u.waiters.PopFront(); ok {
		s.wake(t)
	}
}

// TryRecv returns a queued datagram without blocking.
func (u *UDPSocket) TryRecv() (Datagram, bool) { return u.queue.PopFront() }

// RecvFrom blocks the calling thread until a datagram arrives.
func (u *UDPSocket) RecvFrom(e sched.Env) Datagram {
	for {
		if d, ok := u.TryRecv(); ok {
			return d
		}
		u.waiters.PushBack(e.Self())
		e.Block()
	}
}

// SendTo transmits data to dst:dstPort.
func (u *UDPSocket) SendTo(dst IP, dstPort uint16, data []byte) {
	if len(data) > MTU-IPv4HeaderLen-UDPHeaderLen {
		panic("netsim: UDP datagram exceeds MTU")
	}
	seg := BuildUDP(u.s.IPAddr, dst, UDPHeader{SrcPort: u.port, DstPort: dstPort}, data)
	u.s.transmit(dst, ProtoUDP, seg)
}

// Close releases the port.
func (u *UDPSocket) Close() { delete(u.s.udp, u.port) }
