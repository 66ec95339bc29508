package netsim

// TCP-lite: three-way handshake, sequence/cumulative-ACK data transfer with
// a retransmission timer, in-order delivery, and FIN teardown — the subset
// a µs-scale RPC stack needs. Out-of-order segments are dropped and
// recovered by retransmission (go-back-N), keeping receive state tiny.

import (
	"fmt"

	"skyloft/internal/fifo"
	"skyloft/internal/sched"
	"skyloft/internal/simtime"
)

// TCPState is a connection's lifecycle state.
type TCPState int8

const (
	TCPClosed TCPState = iota
	TCPSynSent
	TCPSynReceived
	TCPEstablished
	TCPFinWait
)

func (s TCPState) String() string {
	switch s {
	case TCPClosed:
		return "closed"
	case TCPSynSent:
		return "syn-sent"
	case TCPSynReceived:
		return "syn-received"
	case TCPEstablished:
		return "established"
	case TCPFinWait:
		return "fin-wait"
	}
	return "?"
}

// MSS is the maximum TCP payload per segment.
const MSS = MTU - IPv4HeaderLen - TCPHeaderLen

// RTO is the fixed retransmission timeout (generous vs µs-scale wires).
const RTO = 200 * simtime.Microsecond

// maxRetries bounds retransmissions before the connection resets.
const maxRetries = 8

// TCPConn is one endpoint of a TCP-lite connection.
type TCPConn struct {
	s          *Stack
	key        connKey
	state      TCPState
	sndNxt     uint32 // next sequence to send
	sndUna     uint32 // oldest unacknowledged sequence
	rcvNxt     uint32 // next expected sequence
	unacked    []txSegment
	rtoEvent   simtime.Event
	rtoFn      func() // onRTO method value, allocated once per connection
	retries    int
	rxBuf      []byte
	rxWaiters  []*sched.Thread
	estWaiters []*sched.Thread
	listener   *TCPListener // set on passive-open connections

	retransmits uint64
}

type txSegment struct {
	seq   uint32
	flags uint8
	data  []byte
}

// TCPListener accepts inbound connections on a port.
type TCPListener struct {
	s       *Stack
	port    uint16
	backlog fifo.Ring[*TCPConn]
	waiters fifo.Ring[*sched.Thread]
}

// ListenTCP starts listening on port.
func (s *Stack) ListenTCP(port uint16) (*TCPListener, error) {
	if _, used := s.listeners[port]; used {
		return nil, fmt.Errorf("netsim: TCP port %d in use", port)
	}
	l := &TCPListener{s: s, port: port}
	s.listeners[port] = l
	return l, nil
}

// Accept blocks until an inbound connection completes its handshake.
func (l *TCPListener) Accept(e sched.Env) *TCPConn {
	for {
		if c, ok := l.backlog.PopFront(); ok {
			return c
		}
		l.waiters.PushBack(e.Self())
		e.Block()
	}
}

// DialTCP opens a connection to dst:port, blocking until established.
func (s *Stack) DialTCP(e sched.Env, dst IP, port uint16) (*TCPConn, error) {
	c := &TCPConn{
		s:     s,
		key:   connKey{localPort: s.ephemeralPort(), remoteIP: dst, remotePort: port},
		state: TCPSynSent,
		// Deterministic ISNs keep simulations replayable.
		sndNxt: 1000,
		sndUna: 1000,
	}
	s.conns[c.key] = c
	c.sendSegment(TCPSyn, nil, true)
	c.sndNxt++ // SYN consumes a sequence number
	for c.state != TCPEstablished {
		if c.state == TCPClosed {
			return nil, fmt.Errorf("netsim: connection to %v:%d failed", dst, port)
		}
		c.estWaiters = append(c.estWaiters, e.Self())
		e.Block()
	}
	return c, nil
}

// State reports the connection state.
func (c *TCPConn) State() TCPState { return c.state }

// Retransmits reports segments retransmitted.
func (c *TCPConn) Retransmits() uint64 { return c.retransmits }

// RemoteIP reports the peer's address.
func (c *TCPConn) RemoteIP() IP { return c.key.remoteIP }

// sendSegment transmits a segment; track=true enqueues it for
// retransmission until acknowledged.
func (c *TCPConn) sendSegment(flags uint8, data []byte, track bool) {
	h := TCPHeader{
		SrcPort: c.key.localPort, DstPort: c.key.remotePort,
		Seq: c.sndNxt, Ack: c.rcvNxt, Flags: flags,
	}
	seg := BuildTCP(c.s.IPAddr, c.key.remoteIP, h, data)
	c.s.transmit(c.key.remoteIP, ProtoTCP, seg)
	if track {
		c.unacked = append(c.unacked, txSegment{seq: c.sndNxt, flags: flags, data: data})
		c.armRTO()
	}
}

func (c *TCPConn) armRTO() {
	if !c.rtoEvent.IsZero() {
		return
	}
	if c.rtoFn == nil {
		c.rtoFn = c.onRTO
	}
	c.rtoEvent = c.s.clock.After(RTO, c.rtoFn)
}

func (c *TCPConn) cancelRTO() {
	// The clock interface has no cancel; mark by the zero handle and ignore
	// fires with an empty queue instead.
	c.rtoEvent = simtime.Event{}
}

// onRTO retransmits the oldest unacknowledged segment (go-back-N would
// resend all; resending the head is enough to make progress).
func (c *TCPConn) onRTO() {
	c.rtoEvent = simtime.Event{}
	if len(c.unacked) == 0 || c.state == TCPClosed {
		return
	}
	c.retries++
	if c.retries > maxRetries {
		c.reset()
		return
	}
	c.retransmits++
	for _, seg := range c.unacked {
		h := TCPHeader{
			SrcPort: c.key.localPort, DstPort: c.key.remotePort,
			Seq: seg.seq, Ack: c.rcvNxt, Flags: seg.flags,
		}
		out := BuildTCP(c.s.IPAddr, c.key.remoteIP, h, seg.data)
		c.s.transmit(c.key.remoteIP, ProtoTCP, out)
	}
	c.armRTO()
}

func (c *TCPConn) reset() {
	c.state = TCPClosed
	c.wakeAll()
}

func (c *TCPConn) wakeAll() {
	for _, t := range c.estWaiters {
		c.s.wake(t)
	}
	c.estWaiters = nil
	for _, t := range c.rxWaiters {
		c.s.wake(t)
	}
	c.rxWaiters = nil
}

// Send queues data for reliable delivery, segmenting at the MSS.
func (c *TCPConn) Send(data []byte) error {
	if c.state != TCPEstablished {
		return fmt.Errorf("netsim: send on %v connection", c.state)
	}
	for len(data) > 0 {
		n := len(data)
		if n > MSS {
			n = MSS
		}
		chunk := append([]byte(nil), data[:n]...)
		c.sendSegment(TCPAck|TCPPsh, chunk, true)
		c.sndNxt += uint32(n)
		data = data[n:]
	}
	return nil
}

// TryRecv drains up to max buffered bytes without blocking.
func (c *TCPConn) TryRecv(max int) []byte {
	if len(c.rxBuf) == 0 {
		return nil
	}
	n := len(c.rxBuf)
	if max > 0 && n > max {
		n = max
	}
	out := c.rxBuf[:n]
	c.rxBuf = c.rxBuf[n:]
	return out
}

// Recv blocks until at least one byte is available (or the connection
// closes, returning nil).
func (c *TCPConn) Recv(e sched.Env, max int) []byte {
	for {
		if out := c.TryRecv(max); out != nil {
			return out
		}
		if c.state == TCPClosed || c.state == TCPFinWait {
			return nil
		}
		c.rxWaiters = append(c.rxWaiters, e.Self())
		e.Block()
	}
}

// Close sends FIN and tears the connection down (simplified: no TIME_WAIT).
func (c *TCPConn) Close() {
	if c.state != TCPEstablished {
		c.state = TCPClosed
		delete(c.s.conns, c.key)
		return
	}
	c.sendSegment(TCPFin|TCPAck, nil, true)
	c.sndNxt++
	c.state = TCPFinWait
}

// rxTCP demultiplexes an inbound segment.
func (s *Stack) rxTCP(src IP, h TCPHeader, data []byte) {
	key := connKey{localPort: h.DstPort, remoteIP: src, remotePort: h.SrcPort}
	if c, ok := s.conns[key]; ok {
		c.onSegment(h, data)
		return
	}
	// New connection: must be a SYN to a listener.
	l := s.listeners[h.DstPort]
	if l == nil || h.Flags&TCPSyn == 0 || h.Flags&TCPAck != 0 {
		s.rxErrors++
		return
	}
	c := &TCPConn{
		s: s, key: key, state: TCPSynReceived,
		sndNxt: 5000, sndUna: 5000,
		rcvNxt: h.Seq + 1,
	}
	s.conns[key] = c
	c.sendSegment(TCPSyn|TCPAck, nil, true)
	c.sndNxt++
	// Deliver to the accept queue once the final ACK arrives (onSegment).
	c.listener = l
}

// onSegment advances the connection state machine.
func (c *TCPConn) onSegment(h TCPHeader, data []byte) {
	if h.Flags&TCPRst != 0 {
		c.reset()
		return
	}
	// ACK processing: drop acknowledged segments from the retransmit
	// queue.
	if h.Flags&TCPAck != 0 && seqGE(h.Ack, c.sndUna) {
		c.sndUna = h.Ack
		keep := c.unacked[:0]
		for _, seg := range c.unacked {
			segEnd := seg.seq + uint32(len(seg.data))
			if seg.flags&(TCPSyn|TCPFin) != 0 {
				segEnd++
			}
			if seqGE(segEnd, h.Ack+1) { // not fully acknowledged
				keep = append(keep, seg)
			}
		}
		c.unacked = keep
		if len(c.unacked) == 0 {
			c.retries = 0
			c.cancelRTO()
		}
	}

	switch c.state {
	case TCPSynSent:
		if h.Flags&TCPSyn != 0 && h.Flags&TCPAck != 0 {
			c.rcvNxt = h.Seq + 1
			c.state = TCPEstablished
			c.sendSegment(TCPAck, nil, false)
			c.wakeAll()
		}
		return
	case TCPSynReceived:
		if h.Flags&TCPAck != 0 {
			c.state = TCPEstablished
			if c.listener != nil {
				c.listener.backlog.PushBack(c)
				if t, ok := c.listener.waiters.PopFront(); ok {
					c.s.wake(t)
				}
			}
		}
		// Fall through: the ACK may carry data.
	}

	if c.state != TCPEstablished && c.state != TCPFinWait {
		return
	}

	advanced := false
	if len(data) > 0 {
		if h.Seq == c.rcvNxt {
			c.rxBuf = append(c.rxBuf, data...)
			c.rcvNxt += uint32(len(data))
			advanced = true
			for _, t := range c.rxWaiters {
				c.s.wake(t)
			}
			c.rxWaiters = nil
		}
		// Out-of-order or duplicate: ACK what we have (below).
		c.sendSegment(TCPAck, nil, false)
	}
	if h.Flags&TCPFin != 0 && h.Seq == c.rcvNxt {
		c.rcvNxt++
		c.state = TCPFinWait
		c.sendSegment(TCPAck, nil, false)
		c.wakeAll()
		advanced = true
	}
	_ = advanced
}

// seqGE compares sequence numbers with wraparound.
func seqGE(a, b uint32) bool { return int32(a-b) >= 0 }
