// Package server wires network workloads to scheduling engines: requests
// from the open-loop load generator enter through the simulated NIC's RSS
// rings and are executed either by a fresh thread per request (the
// dataplane model Skyloft and Shenango use — "idle cores poll the ingress
// pool, creating new threads to process incoming packets", §3.5) or by a
// fixed worker pool popping a shared ring (the Linux baseline model).
package server

import (
	"fmt"

	"skyloft/internal/apps"
	"skyloft/internal/loadgen"
	"skyloft/internal/netsim"
	"skyloft/internal/rng"
	"skyloft/internal/sched"
	"skyloft/internal/simtime"
)

// Handler executes one request in thread context. It runs after the
// datapath delivery and must consume the request's service time (plus any
// application logic) before returning; the server records latency around
// it.
type Handler func(e sched.Env, p netsim.Packet)

// RunService is the default handler: consume the packet's service demand.
func RunService(e sched.Env, p netsim.Packet) { e.Run(p.Service) }

// CausalTracer receives request-identity callbacks from the server glue —
// the propagation points the per-request causal tracer (internal/obs/causal)
// needs beyond what the NIC observer and trace ring expose: which thread
// serves which request, and when the reply happens. Implementations must be
// attach-only. A nil tracer is allowed everywhere and costs one branch.
type CausalTracer interface {
	// BindPacket binds NIC packet seq to its serving thread at instant at.
	BindPacket(seq uint64, task int, at simtime.Time)
	// ReplyPacket closes NIC packet seq's journey at the reply instant.
	ReplyPacket(seq uint64, at simtime.Time)
	// BeginDirect opens a journey for loadgen injection seq (no NIC).
	BeginDirect(seq uint64, at simtime.Time, class int, service simtime.Duration, flow uint64)
	// BindDirect binds injection seq to its serving thread.
	BindDirect(seq uint64, task int)
	// ReplyDirect closes injection seq's journey at the reply instant.
	ReplyDirect(seq uint64, at simtime.Time)
}

// NewThreadPerRequest attaches a thread-per-request server to all rings of
// nic, spawning handler threads on sys.
func NewThreadPerRequest(sys apps.System, nic *netsim.NIC, rec *loadgen.Recorder, h Handler) {
	NewThreadPerRequestObs(sys, nic, rec, h, nil)
}

// NewThreadPerRequestObs is NewThreadPerRequest with an optional causal
// tracer: each request binds to its fresh thread at the delivery instant
// (the handler body runs at a later event, so the bind precedes the first
// dispatch) and replies when the handler returns.
//
// Each request's thread runs the body of a pooled request record (tprReq),
// bound once when the record is created, so a request allocates nothing
// once the pool has grown to the peak number of requests in flight.
func NewThreadPerRequestObs(sys apps.System, nic *netsim.NIC, rec *loadgen.Recorder,
	h Handler, ct CausalTracer) {
	pool := &tprPool{h: h, rec: rec, ct: ct}
	for i := 0; i < nic.Rings(); i++ {
		nic.OnRing(i, func(p netsim.Packet) {
			r := pool.get(p)
			t := sys.Start("req", r.body)
			if ct != nil {
				ct.BindPacket(p.Seq, t.ID, nic.Now())
			}
		})
	}
}

// tprPool is the free list of thread-per-request records of one server.
type tprPool struct {
	h    Handler
	rec  *loadgen.Recorder
	ct   CausalTracer
	free *tprReq
}

// tprReq is one in-flight thread-per-request request: the packet its
// thread serves and the thread body, a method value bound once. The record
// belongs to the thread from Start until the body's last step, which
// pushes it back on the free list.
type tprReq struct {
	pool *tprPool
	p    netsim.Packet
	next *tprReq
	body sched.Func
}

func (pl *tprPool) get(p netsim.Packet) *tprReq {
	r := pl.free
	if r != nil {
		pl.free = r.next
		r.next = nil
	} else {
		r = &tprReq{pool: pl}
		r.body = r.serve
	}
	r.p = p
	return r
}

func (r *tprReq) serve(e sched.Env) {
	pl, p := r.pool, r.p
	pl.h(e, p)
	now := e.Now()
	pl.rec.Record(now, p.Arrive, p.Service, p.Class)
	if pl.ct != nil {
		pl.ct.ReplyPacket(p.Seq, now)
	}
	r.p = netsim.Packet{}
	r.next = pl.free
	pl.free = r
}

// NewWorkerPool attaches a worker-pool server: workers permanent threads
// popping a shared ring (run-to-completion, the Linux CFS baseline of
// Fig. 7a).
func NewWorkerPool(sys apps.System, w netsim.Waker, nic *netsim.NIC, rec *loadgen.Recorder,
	workers int, h Handler) {
	ring := netsim.NewRing(w)
	for i := 0; i < nic.Rings(); i++ {
		nic.OnRing(i, ring.PushExternal)
	}
	for i := 0; i < workers; i++ {
		sys.Start(fmt.Sprintf("pool-worker-%d", i), func(e sched.Env) {
			for {
				p := ring.Pop(e)
				h(e, p)
				rec.Record(e.Now(), p.Arrive, p.Service, p.Class)
			}
		})
	}
}

// Feed connects a load generator to the NIC: every generated request
// becomes a packet delivery.
func Feed(g *loadgen.Gen, clock loadgen.Clock, nic *netsim.NIC, limit uint64) {
	g.Run(clock, limit, func(r loadgen.Request) {
		nic.Deliver(netsim.Packet{
			Service: r.Service,
			Class:   r.Class,
			Flow:    r.Flow,
		})
	})
}

// quickReq is a pooled in-flight request record for the FeedDirect quick
// path: its bound done method replaces the two closures a generic Start
// body would need, so a request costs zero allocations once the pool warms.
type quickReq struct {
	rec     *loadgen.Recorder
	pool    *quickReqPool
	arrive  simtime.Time
	service simtime.Duration
	class   int
	ct      CausalTracer // optional causal tracer (nil when not tracing)
	seq     uint64       // loadgen injection sequence, the tracer's key
	next    *quickReq
	fire    func(now simtime.Time) // bound done method, allocated once
}

type quickReqPool struct{ free *quickReq }

func (p *quickReqPool) get(rec *loadgen.Recorder, r loadgen.Request) *quickReq {
	q := p.free
	if q != nil {
		p.free = q.next
	} else {
		q = &quickReq{pool: p}
		q.fire = q.done
	}
	q.rec, q.arrive, q.service, q.class = rec, r.At, r.Service, r.Class
	return q
}

func (q *quickReq) done(now simtime.Time) {
	rec, arrive, service, class := q.rec, q.arrive, q.service, q.class
	ct, seq := q.ct, q.seq
	q.rec, q.ct, q.seq = nil, nil, 0
	q.next = q.pool.free
	q.pool.free = q
	rec.Record(now, arrive, service, class)
	if ct != nil {
		ct.ReplyDirect(seq, now)
	}
}

// FeedDirect connects a load generator directly to a System, bypassing the
// NIC (the Fig. 7 synthetic experiments, where the load generator runs on
// the dispatcher core): each request becomes a fresh thread. Systems that
// implement apps.QuickSystem (the Skyloft engine) run requests without a
// backing goroutine, through a pooled completion record.
func FeedDirect(g *loadgen.Gen, clock loadgen.Clock, sys apps.System,
	rec *loadgen.Recorder, limit uint64) {
	FeedDirectObs(g, clock, sys, rec, limit, nil)
}

// FeedDirectObs is FeedDirect with an optional causal tracer: each injected
// request opens a journey keyed by its loadgen sequence number, binds to its
// thread at the injection instant and replies through the completion record.
func FeedDirectObs(g *loadgen.Gen, clock loadgen.Clock, sys apps.System,
	rec *loadgen.Recorder, limit uint64, ct CausalTracer) {
	if qs, ok := sys.(apps.QuickSystem); ok {
		var pool quickReqPool
		g.Run(clock, limit, func(r loadgen.Request) {
			q := pool.get(rec, r)
			if ct != nil {
				q.ct, q.seq = ct, r.Seq
				ct.BeginDirect(r.Seq, r.At, r.Class, r.Service, r.Flow)
			}
			t := qs.StartQuick("req", r.Service, q.fire)
			if ct != nil {
				ct.BindDirect(r.Seq, t.ID)
			}
		})
		return
	}
	g.Run(clock, limit, func(r loadgen.Request) {
		arrive := r.At
		req := r
		if ct != nil {
			ct.BeginDirect(req.Seq, arrive, req.Class, req.Service, req.Flow)
		}
		t := sys.Start("req", func(e sched.Env) {
			e.Run(req.Service)
			now := e.Now()
			rec.Record(now, arrive, req.Service, req.Class)
			if ct != nil {
				ct.ReplyDirect(req.Seq, now)
			}
		})
		if ct != nil {
			ct.BindDirect(req.Seq, t.ID)
		}
	})
}

// USRClasses is Memcached's USR workload (§5.3): 99.8% GETs / 0.2% SETs
// with ~2 µs mean service time (light-tailed).
func USRClasses() []loadgen.Class {
	return []loadgen.Class{
		{Name: "GET", Weight: 0.998, Service: rng.Exponential{MeanVal: 2 * simtime.Microsecond}},
		{Name: "SET", Weight: 0.002, Service: rng.Exponential{MeanVal: 3 * simtime.Microsecond}},
	}
}

// RocksDBClasses is the bimodal RocksDB workload of Fig. 8b: 50% GETs at
// 0.95 µs and 50% SCANs at 591 µs.
func RocksDBClasses() []loadgen.Class {
	return []loadgen.Class{
		{Name: "GET", Weight: 0.5, Service: rng.Fixed{Value: 950}},
		{Name: "SCAN", Weight: 0.5, Service: rng.Fixed{Value: 591 * simtime.Microsecond}},
	}
}

// DispersiveClasses is the Fig. 7 synthetic workload: 99.5% short (4 µs)
// and 0.5% long (10 ms) requests.
func DispersiveClasses() []loadgen.Class {
	return []loadgen.Class{
		{Name: "short", Weight: 0.995, Service: rng.Fixed{Value: 4 * simtime.Microsecond}},
		{Name: "long", Weight: 0.005, Service: rng.Fixed{Value: 10 * simtime.Millisecond}},
	}
}
