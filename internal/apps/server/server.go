// Package server wires network workloads to scheduling engines: requests
// from the open-loop load generator enter through the simulated NIC's RSS
// rings and are executed either by a fresh thread per request (the
// dataplane model Skyloft and Shenango use — "idle cores poll the ingress
// pool, creating new threads to process incoming packets", §3.5) or by a
// fixed worker pool popping a shared ring (the Linux baseline model).
//
// A thread per request is a quick thread (sched.Quick) whose body is a
// pooled request record, so no coroutine backs it and a request allocates
// nothing once the pool has grown to the peak number in flight.
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

// Handler executes one request in thread context, after the datapath
// delivery: it does the request's data-structure work, then consumes its
// service time with one e.Run, which must be its last Env call. The server
// records the request's latency when that Run completes. On the
// thread-per-request path the handler is a quick body (sched.Quick.Begin),
// so it may not Yield, Block, Sleep, IO, Fault, Wake or Spawn, and the
// engine panics if it does.
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
// nic, starting a quick handler thread on sys per packet.
func NewThreadPerRequest(sys apps.QuickSystem, nic *netsim.NIC, rec *loadgen.Recorder, h Handler) {
	NewThreadPerRequestObs(sys, nic, rec, h, nil)
}

// NewThreadPerRequestObs is NewThreadPerRequest with an optional causal
// tracer: each request binds to its fresh thread at the delivery instant
// (the handler runs at a later event, so the bind precedes the first
// dispatch) and replies when the handler's Run completes.
func NewThreadPerRequestObs(sys apps.QuickSystem, nic *netsim.NIC, rec *loadgen.Recorder,
	h Handler, ct CausalTracer) {
	pool := &tprPool{h: h, rec: rec, ct: ct}
	for i := 0; i < nic.Rings(); i++ {
		nic.OnRing(i, func(p netsim.Packet) {
			t := sys.StartQuick("req", pool.get(p))
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

// tprReq is one in-flight request: the packet its thread serves, and that
// thread's quick body. The record belongs to the thread from StartQuick
// until End pushes it back on the free list.
type tprReq struct {
	pool *tprPool
	p    netsim.Packet
	next *tprReq
}

func (pl *tprPool) get(p netsim.Packet) *tprReq {
	r := pl.free
	if r != nil {
		pl.free = r.next
		r.next = nil
	} else {
		r = &tprReq{pool: pl}
	}
	r.p = p
	return r
}

// Begin runs the handler: the request's work, then its Run.
func (r *tprReq) Begin(e sched.Env) { r.pool.h(e, r.p) }

// End records the reply at the instant the handler's Run completed.
func (r *tprReq) End(now simtime.Time) {
	pl, p := r.pool, r.p
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

// quickReq is one in-flight FeedDirect request and its thread's quick
// body, pooled like tprReq.
type quickReq struct {
	pool    *quickReqPool
	arrive  simtime.Time
	service simtime.Duration
	class   int
	seq     uint64 // loadgen injection sequence, the tracer's key
	next    *quickReq
}

// quickReqPool is the free list of FeedDirect records of one feed.
type quickReqPool struct {
	rec  *loadgen.Recorder
	ct   CausalTracer
	free *quickReq
}

func (pl *quickReqPool) get(r loadgen.Request) *quickReq {
	q := pl.free
	if q != nil {
		pl.free = q.next
	} else {
		q = &quickReq{pool: pl}
	}
	q.arrive, q.service, q.class, q.seq = r.At, r.Service, r.Class, r.Seq
	return q
}

// Begin consumes the request's service time.
func (q *quickReq) Begin(e sched.Env) { e.Run(q.service) }

// End records the reply at the instant the service time has run.
func (q *quickReq) End(now simtime.Time) {
	pl := q.pool
	pl.rec.Record(now, q.arrive, q.service, q.class)
	if pl.ct != nil {
		pl.ct.ReplyDirect(q.seq, now)
	}
	q.next = pl.free
	pl.free = q
}

// FeedDirect connects a load generator directly to a QuickSystem,
// bypassing the NIC (the Fig. 7 synthetic experiments, where the load
// generator runs on the dispatcher core): each request becomes a fresh
// quick thread that runs its service time.
func FeedDirect(g *loadgen.Gen, clock loadgen.Clock, sys apps.QuickSystem,
	rec *loadgen.Recorder, limit uint64) {
	FeedDirectObs(g, clock, sys, rec, limit, nil)
}

// FeedDirectObs is FeedDirect with an optional causal tracer: each injected
// request opens a journey keyed by its loadgen sequence number, binds to its
// thread at the injection instant and replies when its service time has run.
func FeedDirectObs(g *loadgen.Gen, clock loadgen.Clock, sys apps.QuickSystem,
	rec *loadgen.Recorder, limit uint64, ct CausalTracer) {
	pool := &quickReqPool{rec: rec, ct: ct}
	g.Run(clock, limit, func(r loadgen.Request) {
		if ct != nil {
			ct.BeginDirect(r.Seq, r.At, r.Class, r.Service, r.Flow)
		}
		t := sys.StartQuick("req", pool.get(r))
		if ct != nil {
			ct.BindDirect(r.Seq, t.ID)
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
