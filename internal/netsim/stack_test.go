package netsim

import (
	"bytes"
	"testing"

	"skyloft/internal/simtime"
)

func twoHosts(t *testing.T, latency simtime.Duration) (*simtime.Clock, *Stack, *Stack, *Wire) {
	t.Helper()
	clock := simtime.NewClock()
	wire := NewWire(clock, latency)
	a := NewStack(clock, nil, IP{10, 0, 0, 1}, MAC{2, 0, 0, 0, 0, 1})
	b := NewStack(clock, nil, IP{10, 0, 0, 2}, MAC{2, 0, 0, 0, 0, 2})
	a.Attach(wire, 0)
	b.Attach(wire, 1)
	return clock, a, b, wire
}

func TestUDPEndToEnd(t *testing.T) {
	clock, a, b, _ := twoHosts(t, 2*simtime.Microsecond)
	srv, err := b.BindUDP(9000)
	if err != nil {
		t.Fatal(err)
	}
	var got []Datagram
	srv.OnDatagram(func(d Datagram) { got = append(got, d) })
	cli, _ := a.BindUDP(0)
	var sentAt, rcvdAt simtime.Time
	clock.At(100, func() {
		sentAt = clock.Now()
		cli.SendTo(b.IPAddr, 9000, []byte("ping"))
	})
	srv.OnDatagram(func(d Datagram) { got = append(got, d); rcvdAt = clock.Now() })
	clock.Run(simtime.Second)
	if len(got) != 1 || string(got[0].Data) != "ping" {
		t.Fatalf("datagrams = %v", got)
	}
	if got[0].Src != a.IPAddr || got[0].SrcPort != cli.Port() {
		t.Fatalf("source info wrong: %+v", got[0])
	}
	if rcvdAt-sentAt != 2*simtime.Microsecond {
		t.Fatalf("latency = %v, want 2us", rcvdAt-sentAt)
	}
}

func TestUDPReplyPath(t *testing.T) {
	clock, a, b, _ := twoHosts(t, simtime.Microsecond)
	srv, _ := b.BindUDP(7)
	srv.OnDatagram(func(d Datagram) {
		srv.SendTo(d.Src, d.SrcPort, append([]byte("echo:"), d.Data...))
	})
	cli, _ := a.BindUDP(0)
	var reply []byte
	cli.OnDatagram(func(d Datagram) { reply = d.Data })
	clock.At(0, func() { cli.SendTo(b.IPAddr, 7, []byte("hi")) })
	clock.Run(simtime.Second)
	if string(reply) != "echo:hi" {
		t.Fatalf("reply = %q", reply)
	}
}

func TestUDPPortDemux(t *testing.T) {
	clock, a, b, _ := twoHosts(t, 1)
	s1, _ := b.BindUDP(1001)
	s2, _ := b.BindUDP(1002)
	var got1, got2 int
	s1.OnDatagram(func(Datagram) { got1++ })
	s2.OnDatagram(func(Datagram) { got2++ })
	cli, _ := a.BindUDP(0)
	clock.At(0, func() {
		cli.SendTo(b.IPAddr, 1001, []byte("a"))
		cli.SendTo(b.IPAddr, 1002, []byte("b"))
		cli.SendTo(b.IPAddr, 1002, []byte("c"))
		cli.SendTo(b.IPAddr, 1003, []byte("d")) // unbound: dropped
	})
	clock.Run(simtime.Second)
	if got1 != 1 || got2 != 2 {
		t.Fatalf("demux got %d/%d", got1, got2)
	}
	if b.RxErrors() != 1 {
		t.Fatalf("unbound port should count as rx error: %d", b.RxErrors())
	}
	if _, err := b.BindUDP(1001); err == nil {
		t.Fatal("double bind allowed")
	}
}

func TestWireLoss(t *testing.T) {
	clock, a, b, wire := twoHosts(t, 1)
	wire.SetLoss(1.0, 42) // drop everything
	srv, _ := b.BindUDP(5)
	got := 0
	srv.OnDatagram(func(Datagram) { got++ })
	cli, _ := a.BindUDP(0)
	clock.At(0, func() { cli.SendTo(b.IPAddr, 5, []byte("x")) })
	clock.Run(simtime.Second)
	if got != 0 || wire.Dropped() != 1 {
		t.Fatalf("loss injection broken: got=%d dropped=%d", got, wire.Dropped())
	}
}

func TestTCPHandshakeAndTransfer(t *testing.T) {
	clock, a, b, _ := twoHosts(t, 2*simtime.Microsecond)
	l, err := b.ListenTCP(80)
	if err != nil {
		t.Fatal(err)
	}
	var cli *TCPConn
	clock.At(0, func() {
		// Active open without blocking: drive the state machine manually.
		cli = &TCPConn{
			s:      a,
			key:    connKey{localPort: a.ephemeralPort(), remoteIP: b.IPAddr, remotePort: 80},
			state:  TCPSynSent,
			sndNxt: 1000, sndUna: 1000,
		}
		a.conns[cli.key] = cli
		cli.sendSegment(TCPSyn, nil, true)
		cli.sndNxt++
	})
	clock.Run(simtime.Millisecond)
	if cli.State() != TCPEstablished {
		t.Fatalf("client state %v after handshake", cli.State())
	}
	if l.backlog.Len() != 1 {
		t.Fatalf("listener backlog = %d", l.backlog.Len())
	}
	srvConn, _ := l.backlog.PopFront()
	if srvConn.State() != TCPEstablished {
		t.Fatalf("server conn state %v", srvConn.State())
	}

	// Transfer data both ways.
	msg := bytes.Repeat([]byte("abcdefgh"), 400) // 3200 B: multiple segments
	clock.At(clock.Now()+1000, func() {
		if err := cli.Send(msg); err != nil {
			t.Errorf("send: %v", err)
		}
	})
	clock.Run(clock.Now() + 10*simtime.Millisecond)
	if !bytes.Equal(srvConn.TryRecv(0), msg) {
		t.Fatal("server did not receive the full message in order")
	}
	clock.At(clock.Now()+1000, func() {
		if err := srvConn.Send([]byte("ok")); err != nil {
			t.Errorf("reply: %v", err)
		}
	})
	clock.Run(clock.Now() + 10*simtime.Millisecond)
	if string(cli.TryRecv(0)) != "ok" {
		t.Fatal("client did not receive the reply")
	}
}

func TestTCPRetransmissionRecoversLoss(t *testing.T) {
	clock, a, b, wire := twoHosts(t, 2*simtime.Microsecond)
	b.ListenTCP(80)
	var cli *TCPConn
	clock.At(0, func() {
		cli = &TCPConn{
			s:      a,
			key:    connKey{localPort: a.ephemeralPort(), remoteIP: b.IPAddr, remotePort: 80},
			state:  TCPSynSent,
			sndNxt: 1000, sndUna: 1000,
		}
		a.conns[cli.key] = cli
		cli.sendSegment(TCPSyn, nil, true)
		cli.sndNxt++
	})
	clock.Run(simtime.Millisecond)
	if cli.State() != TCPEstablished {
		t.Fatal("handshake failed")
	}
	// 20% loss: data must still arrive, via retransmissions.
	wire.SetLoss(0.2, 7)
	msg := bytes.Repeat([]byte("x"), 10*MSS)
	clock.At(clock.Now()+1000, func() { cli.Send(msg) })
	clock.Run(clock.Now() + simtime.Second)
	srvConn := b.conns[connKey{localPort: 80, remoteIP: a.IPAddr, remotePort: cli.key.localPort}]
	got := srvConn.TryRecv(0)
	if !bytes.Equal(got, msg) {
		t.Fatalf("lossy transfer incomplete: %d/%d bytes", len(got), len(msg))
	}
	if cli.Retransmits() == 0 {
		t.Fatal("no retransmissions under 20% loss")
	}
}

func TestTCPCloseHandshake(t *testing.T) {
	clock, a, b, _ := twoHosts(t, simtime.Microsecond)
	b.ListenTCP(80)
	var cli *TCPConn
	clock.At(0, func() {
		cli = &TCPConn{
			s:      a,
			key:    connKey{localPort: a.ephemeralPort(), remoteIP: b.IPAddr, remotePort: 80},
			state:  TCPSynSent,
			sndNxt: 1, sndUna: 1,
		}
		a.conns[cli.key] = cli
		cli.sendSegment(TCPSyn, nil, true)
		cli.sndNxt++
	})
	clock.Run(simtime.Millisecond)
	clock.At(clock.Now()+10, func() { cli.Close() })
	clock.Run(clock.Now() + 10*simtime.Millisecond)
	srvConn := b.conns[connKey{localPort: 80, remoteIP: a.IPAddr, remotePort: cli.key.localPort}]
	if srvConn.State() != TCPFinWait {
		t.Fatalf("server state after FIN = %v", srvConn.State())
	}
}
