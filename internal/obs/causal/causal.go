// Package causal traces individual request journeys through the scheduling
// stack — the per-request analogue of the sched-doctor's aggregate four-way
// tail attribution (DESIGN.md §13).
//
// A journey starts when a request enters the system (NIC arrival for
// network workloads, load-generator injection for direct ones, or a Wake
// event in episode mode), propagates through RSS steering, ingress-ring
// residency, wakeup, dispatch, preemption and migration, and ends at the
// reply. The tracer folds the journey's causal DAG into an exact critical
// path: five edge classes — queue, tick-quant, preempt-delay, delivery,
// service — that tile the interval [arrive, reply] with no gaps and no
// overlaps, so they sum to the request's sojourn *exactly* (finish panics
// otherwise; the differential tests ride on that invariant).
//
// Like every observability layer before it the tracer is attach-only: it
// consumes the trace ring through an extra tap (trace.Ring.AddTap) and the
// datapath through netsim.Observer / server.CausalTracer callbacks, never
// schedules events, and never mutates simulation state — golden trace and
// span hashes are unchanged with the tracer attached, and the tracer's own
// state — including the deterministic top-K slow-request exemplar
// selection — replays bit-identically at a fixed seed.
package causal

import (
	"fmt"

	"skyloft/internal/netsim"
	"skyloft/internal/simtime"
	"skyloft/internal/trace"
)

// DeliveryProber reports the most recent delivery-substrate instant (UINTR
// delivery or hardware IRQ entry) on a worker CPU. core.Engine implements
// it; the tracer uses it to annotate dispatch hops with the notification
// that plausibly triggered them. Annotation only — never part of an edge.
type DeliveryProber interface {
	UINTRDeliveredAt(cpu int) simtime.Time
}

// Config parameterises a Tracer.
type Config struct {
	// K bounds the retained slow-request exemplars (default 8).
	K int
	// TickPeriod is the preemption tick period, used to split a wait behind
	// a preempted predecessor into tick-quant (up to one period — the tick
	// granularity itself) and preempt-delay (the remainder — delivery and
	// handling latency of the preemption signal). 0 means no tick: such
	// waits are all preempt-delay.
	TickPeriod simtime.Duration
	// Episodes switches the tracer to episode mode: instead of NIC/loadgen
	// requests, every Wake event opens a journey that ends when the task
	// parks again (Block/Sleep/Exit) — the wake-to-park episodes behind the
	// Fig. 5/6 wakeup-latency claims. Used by workloads with no request
	// injection path.
	Episodes bool
}

// Breakdown is a journey's critical path: five edge classes that tile
// [arrive, reply] exactly. Queue is ingress-ring residency plus ready-queue
// waits behind voluntarily-yielded cores; TickQuant and PreemptDelay split
// waits behind preempted predecessors (the tick granularity vs the
// preemption signal's delivery latency); Delivery is datapath and idle-core
// wakeup latency; Service is on-CPU execution plus application-induced
// parks.
type Breakdown struct {
	Queue        simtime.Duration `json:"queue_ns"`
	TickQuant    simtime.Duration `json:"tick_quant_ns"`
	PreemptDelay simtime.Duration `json:"preempt_delay_ns"`
	Delivery     simtime.Duration `json:"delivery_ns"`
	Service      simtime.Duration `json:"service_ns"`
}

// Total sums the five edges — by construction the journey's sojourn.
func (b Breakdown) Total() simtime.Duration {
	return b.Queue + b.TickQuant + b.PreemptDelay + b.Delivery + b.Service
}

// Hop is one dispatch of the journey's serving task: the wait that preceded
// it (split into the same edge classes as the Breakdown), the run segment
// that followed, and how the segment ended. UintrAt, when non-zero, is the
// delivery-substrate instant (UINTR or IRQ entry) observed inside the wait
// window — the notification that plausibly triggered this dispatch.
type Hop struct {
	CPU          int              `json:"cpu"`
	At           simtime.Time     `json:"at_ns"`
	Wait         simtime.Duration `json:"wait_ns"`
	Queue        simtime.Duration `json:"queue_ns,omitempty"`
	TickQuant    simtime.Duration `json:"tick_quant_ns,omitempty"`
	PreemptDelay simtime.Duration `json:"preempt_delay_ns,omitempty"`
	Delivery     simtime.Duration `json:"delivery_ns,omitempty"`
	Run          simtime.Duration `json:"run_ns"`
	End          string           `json:"end"`
	UintrAt      simtime.Time     `json:"uintr_at_ns,omitempty"`
}

// Exemplar is one fully-traced slow request retained by the top-K miner.
type Exemplar struct {
	ID        uint64           `json:"id"`
	Kind      string           `json:"kind"` // "request" or "episode"
	Task      int              `json:"task"`
	App       int              `json:"app"`
	Class     int              `json:"class"` // -1 in episode mode
	Flow      uint64           `json:"flow"`
	Ring      int              `json:"ring"` // RSS ingress ring, -1 when direct
	Arrive    simtime.Time     `json:"arrive_ns"`
	Sojourn   simtime.Duration `json:"sojourn_ns"`
	Demand    simtime.Duration `json:"demand_ns"` // offered service demand (0 unknown)
	Breakdown Breakdown        `json:"breakdown"`
	Hops      []Hop            `json:"hops"`
}

// Summary is the compact exemplar form carried in live-bus snapshots and
// flight-recorder manifests.
type Summary struct {
	ID        uint64           `json:"id"`
	App       int              `json:"app"`
	Class     int              `json:"class"`
	Sojourn   simtime.Duration `json:"sojourn_ns"`
	Breakdown Breakdown        `json:"breakdown"`
	Hops      int              `json:"hops"`
}

// journey is one in-flight request.
type journey struct {
	id      uint64
	kind    string
	srcSeq  uint64 // bySeq / byDirect key (0 = none)
	direct  bool
	class   int
	flow    uint64
	ring    int
	task    int
	app     int
	demand  simtime.Duration
	arrive  simtime.Time
	deliver simtime.Time

	bound      bool
	running    bool
	parked     bool
	onSince    simtime.Time
	readySince simtime.Time
	parkedAt   simtime.Time

	b    Breakdown
	hops []Hop
}

// coreState is the tracer's shadow of per-core occupancy, replaying the
// doctor's classification rule: what freed a core last decides how the next
// dispatch's wait on it is attributed.
type coreState struct {
	lastFreeAt   simtime.Time
	lastFreeKind trace.Kind
	everOccupied bool
}

// Tracer assembles request journeys from the trace-ring tap and the
// datapath callbacks. Not safe for concurrent use; the event core executes
// all callbacks serially.
type Tracer struct {
	cfg    Config
	ring   *trace.Ring
	tapID  int
	prober DeliveryProber

	nextID    uint64
	started   uint64
	completed uint64
	abandoned uint64

	bySeq    map[uint64]*journey // NIC packet seq -> journey (request mode)
	byDirect map[uint64]*journey // loadgen injection seq -> journey
	byTask   map[int]*journey    // bound journeys by thread ID
	onCPU    map[int]bool        // tasks currently dispatched
	cores    map[int]*coreState

	top []*Exemplar // sorted: worst sojourn first, ID ascending on ties

	// free holds closed journeys for reuse, hops backing arrays included,
	// so a traced request allocates nothing unless it enters the top-K.
	free []*journey
}

// New creates a tracer.
func New(cfg Config) *Tracer {
	if cfg.K <= 0 {
		cfg.K = 8
	}
	return &Tracer{
		cfg:      cfg,
		bySeq:    make(map[uint64]*journey),
		byDirect: make(map[uint64]*journey),
		byTask:   make(map[int]*journey),
		onCPU:    make(map[int]bool),
		cores:    make(map[int]*coreState),
	}
}

// Attach installs the tracer as an extra tap on r (coexisting with the live
// bus's primary tap). Detach removes it.
func (t *Tracer) Attach(r *trace.Ring) {
	if t.ring != nil {
		panic("causal: tracer already attached")
	}
	t.ring = r
	t.tapID = r.AddTap(t.OnEvent)
}

// Detach removes the tracer's tap.
func (t *Tracer) Detach() {
	if t.ring != nil {
		t.ring.RemoveTap(t.tapID)
		t.ring = nil
	}
}

// SetDeliveryProber installs the optional delivery-substrate prober (the
// engine). Nil disables hop annotation.
func (t *Tracer) SetDeliveryProber(p DeliveryProber) { t.prober = p }

// Started, Completed and Abandoned report journey counts; InFlight the
// journeys still open.
func (t *Tracer) Started() uint64   { return t.started }
func (t *Tracer) Completed() uint64 { return t.completed }
func (t *Tracer) Abandoned() uint64 { return t.abandoned }
func (t *Tracer) InFlight() uint64  { return t.started - t.completed - t.abandoned }

// Coverage reports the fraction of started journeys that completed — the
// causal.exemplar_coverage sentinel (1.0 when everything replied; open-loop
// runs end with a small in-flight tail).
func (t *Tracer) Coverage() float64 {
	if t.started == 0 {
		return 0
	}
	return float64(t.completed) / float64(t.started)
}

func (t *Tracer) core(cpu int) *coreState {
	cs := t.cores[cpu]
	if cs == nil {
		cs = &coreState{}
		t.cores[cpu] = cs
	}
	return cs
}

// --- netsim.Observer: the NIC arrival / delivery path ---

// PacketArrived opens a journey at the NIC arrival instant (after sequence
// assignment and RSS steering).
func (t *Tracer) PacketArrived(p netsim.Packet, ring int) {
	t.nextID++
	t.started++
	j := t.open(journey{
		id: t.nextID, kind: "request", srcSeq: p.Seq,
		class: p.Class, flow: p.Flow, ring: ring, demand: p.Service,
		arrive: p.Arrive, deliver: p.Arrive,
	})
	t.bySeq[p.Seq] = j
}

// PacketDelivered marks the datapath hand-off to the ring handler; the
// interval since arrival is the NIC poll + ring hop + stack delay, a
// delivery edge.
func (t *Tracer) PacketDelivered(p netsim.Packet, ring int, at simtime.Time) {
	j := t.bySeq[p.Seq]
	if j == nil {
		return
	}
	j.b.Delivery += at - j.arrive
	j.deliver = at
}

// --- server.CausalTracer: binding and reply ---

// BindPacket binds the journey for NIC packet seq to the serving thread at
// instant at: the spawned handler thread (thread-per-request, at delivery)
// or the pool worker that popped it from the ingress ring. The interval
// [delivered, bind] is ingress-ring residency — a queue edge.
func (t *Tracer) BindPacket(seq uint64, task int, at simtime.Time) {
	if j := t.bySeq[seq]; j != nil {
		t.bind(j, task, at)
	}
}

// ReplyPacket closes the journey for NIC packet seq at the reply instant.
func (t *Tracer) ReplyPacket(seq uint64, at simtime.Time) {
	if j := t.bySeq[seq]; j != nil {
		t.finish(j, at)
	}
}

// BeginDirect opens a journey for a directly-injected request (no NIC):
// seq is the loadgen injection sequence number, at the injection instant.
func (t *Tracer) BeginDirect(seq uint64, at simtime.Time, class int, service simtime.Duration, flow uint64) {
	t.nextID++
	t.started++
	j := t.open(journey{
		id: t.nextID, kind: "request", srcSeq: seq, direct: true,
		class: class, flow: flow, ring: -1, demand: service,
		arrive: at, deliver: at,
	})
	t.byDirect[seq] = j
}

// BindDirect binds a direct journey to its serving thread. Injection,
// thread creation and binding happen at the same virtual instant, so the
// queue edge is zero.
func (t *Tracer) BindDirect(seq uint64, task int) {
	if j := t.byDirect[seq]; j != nil {
		t.bind(j, task, j.deliver)
	}
}

// ReplyDirect closes a direct journey at the reply instant.
func (t *Tracer) ReplyDirect(seq uint64, at simtime.Time) {
	if j := t.byDirect[seq]; j != nil {
		t.finish(j, at)
	}
}

func (t *Tracer) bind(j *journey, task int, at simtime.Time) {
	if old := t.byTask[task]; old != nil {
		t.abandon(old) // defensive: a task can serve one journey at a time
	}
	j.task = task
	j.bound = true
	j.b.Queue += at - j.deliver
	t.byTask[task] = j
	if t.onCPU[task] {
		// Pool worker mid-run: the journey is on-CPU from the bind on.
		j.running = true
		j.onSince = at
	} else {
		// Fresh thread: ready, waiting for its first dispatch.
		j.readySince = at
	}
}

// --- trace tap: dispatch / off-CPU / wake folding ---

// OnEvent folds one trace event. It runs synchronously inside
// trace.Ring.Record, in the engine's global event order.
func (t *Tracer) OnEvent(ev trace.Event) {
	switch ev.Kind {
	case trace.Dispatch:
		cs := t.core(ev.CPU)
		if j := t.byTask[ev.Task]; j != nil && !j.running {
			t.onDispatch(j, ev, cs)
		}
		cs.everOccupied = true
		t.onCPU[ev.Task] = true
	case trace.Preempt, trace.Yield, trace.Block, trace.Sleep, trace.Exit:
		cs := t.core(ev.CPU)
		cs.lastFreeAt, cs.lastFreeKind = ev.At, ev.Kind
		delete(t.onCPU, ev.Task)
		if j := t.byTask[ev.Task]; j != nil {
			t.offCPU(j, ev)
		}
	case trace.Wake:
		t.onWake(ev)
	}
}

// onDispatch classifies the wait [readySince, dispatch) with the doctor's
// occupancy-replay rule — what freed the core last decides the class — and
// opens a new hop.
func (t *Tracer) onDispatch(j *journey, ev trace.Event, cs *coreState) {
	j.app = ev.App
	w, d := j.readySince, ev.At
	hop := Hop{CPU: ev.CPU, At: d, Wait: d - w}
	if !cs.everOccupied || cs.lastFreeAt <= w {
		// The core was already free when the task became ready: the whole
		// wait is wakeup/dispatch delivery latency.
		hop.Delivery = d - w
	} else {
		wait := cs.lastFreeAt - w
		hop.Delivery = d - cs.lastFreeAt
		if cs.lastFreeKind == trace.Preempt {
			tq := wait
			if t.cfg.TickPeriod <= 0 {
				tq = 0
			} else if tq > t.cfg.TickPeriod {
				tq = t.cfg.TickPeriod
			}
			hop.TickQuant = tq
			hop.PreemptDelay = wait - tq
		} else {
			hop.Queue = wait
		}
	}
	if t.prober != nil {
		if ua := t.prober.UINTRDeliveredAt(ev.CPU); ua >= w && ua <= d {
			hop.UintrAt = ua
		}
	}
	j.b.Queue += hop.Queue
	j.b.TickQuant += hop.TickQuant
	j.b.PreemptDelay += hop.PreemptDelay
	j.b.Delivery += hop.Delivery
	j.hops = append(j.hops, hop)
	j.running = true
	j.onSince = d
}

func (t *Tracer) offCPU(j *journey, ev trace.Event) {
	if j.running {
		run := ev.At - j.onSince
		j.b.Service += run
		if n := len(j.hops); n > 0 {
			j.hops[n-1].Run += run
			j.hops[n-1].End = ev.Kind.String()
		}
		j.running = false
	}
	switch ev.Kind {
	case trace.Preempt, trace.Yield:
		j.readySince = ev.At
	case trace.Block, trace.Sleep:
		if t.cfg.Episodes {
			t.finish(j, ev.At)
			return
		}
		// Application-induced park mid-request; resolved at the Wake.
		j.parked = true
		j.parkedAt = ev.At
	case trace.Exit:
		if t.cfg.Episodes {
			t.finish(j, ev.At)
			return
		}
		// Exit without a reply: the journey cannot complete.
		t.abandon(j)
	}
}

func (t *Tracer) onWake(ev trace.Event) {
	if t.cfg.Episodes {
		if t.byTask[ev.Task] != nil {
			return // anomalous double wake; keep the open episode
		}
		t.nextID++
		t.started++
		j := t.open(journey{
			id: t.nextID, kind: "episode", class: -1, ring: -1,
			task: ev.Task, app: ev.App, bound: true,
			arrive: ev.At, deliver: ev.At, readySince: ev.At,
		})
		t.byTask[ev.Task] = j
		return
	}
	j := t.byTask[ev.Task]
	if j == nil || !j.parked {
		return
	}
	// The park was application-induced (the handler blocked or slept), so
	// its duration is service, not scheduling delay.
	j.b.Service += ev.At - j.parkedAt
	j.parked = false
	j.readySince = ev.At
}

// finish closes a journey at the reply instant, checks the tiling invariant
// and offers it to the top-K miner.
func (t *Tracer) finish(j *journey, at simtime.Time) {
	if j.running {
		run := at - j.onSince
		j.b.Service += run
		if n := len(j.hops); n > 0 {
			j.hops[n-1].Run += run
			j.hops[n-1].End = "reply"
		}
		j.running = false
	} else if j.parked {
		j.b.Service += at - j.parkedAt
		j.parked = false
	}
	sojourn := at - j.arrive
	if total := j.b.Total(); total != sojourn {
		panic(fmt.Sprintf(
			"causal: journey %d (%s) edges sum to %v, sojourn %v — breakdown %+v",
			j.id, j.kind, total, sojourn, j.b))
	}
	t.completed++
	t.unlink(j)
	t.offer(j, sojourn)
	t.release(j)
}

func (t *Tracer) abandon(j *journey) {
	t.abandoned++
	t.unlink(j)
	t.release(j)
}

// open returns a journey initialised to init, reusing a released record
// (and its hops backing array) when one is free.
func (t *Tracer) open(init journey) *journey {
	var j *journey
	if n := len(t.free); n > 0 {
		j = t.free[n-1]
		t.free[n-1] = nil
		t.free = t.free[:n-1]
		init.hops = j.hops[:0]
	} else {
		j = new(journey)
	}
	*j = init
	return j
}

// release returns a closed journey, already unlinked from every index, to
// the free list. The caller must not touch j afterwards.
func (t *Tracer) release(j *journey) {
	t.free = append(t.free, j)
}

func (t *Tracer) unlink(j *journey) {
	if j.bound && t.byTask[j.task] == j {
		delete(t.byTask, j.task)
	}
	if j.kind == "request" {
		if j.direct {
			delete(t.byDirect, j.srcSeq)
		} else {
			delete(t.bySeq, j.srcSeq)
		}
	}
}

// worse orders exemplars: longer sojourn first, earlier ID on ties — a
// total order, so top-K selection is deterministic.
func worse(aSojourn simtime.Duration, aID uint64, bSojourn simtime.Duration, bID uint64) bool {
	if aSojourn != bSojourn {
		return aSojourn > bSojourn
	}
	return aID < bID
}

// offer inserts the finished journey into the top-K if it qualifies. The
// exemplar gets its own copy of the hops: the journey's array is reused.
func (t *Tracer) offer(j *journey, sojourn simtime.Duration) {
	if len(t.top) == t.cfg.K {
		last := t.top[len(t.top)-1]
		if !worse(sojourn, j.id, last.Sojourn, last.ID) {
			return
		}
	}
	ex := &Exemplar{
		ID: j.id, Kind: j.kind, Task: j.task, App: j.app,
		Class: j.class, Flow: j.flow, Ring: j.ring,
		Arrive: j.arrive, Sojourn: sojourn, Demand: j.demand,
		Breakdown: j.b, Hops: append([]Hop(nil), j.hops...),
	}
	// Insert in sorted position (K is small; linear scan from the back).
	t.top = append(t.top, ex)
	i := len(t.top) - 1
	for i > 0 && worse(ex.Sojourn, ex.ID, t.top[i-1].Sojourn, t.top[i-1].ID) {
		t.top[i] = t.top[i-1]
		i--
	}
	t.top[i] = ex
	if len(t.top) > t.cfg.K {
		t.top[len(t.top)-1] = nil
		t.top = t.top[:t.cfg.K]
	}
}

// Exemplars returns the current top-K, worst first.
func (t *Tracer) Exemplars() []Exemplar {
	out := make([]Exemplar, len(t.top))
	for i, ex := range t.top {
		out[i] = *ex
	}
	return out
}

// Summaries returns the compact exemplar forms, worst first.
func (t *Tracer) Summaries() []Summary {
	out := make([]Summary, len(t.top))
	for i, ex := range t.top {
		out[i] = Summary{
			ID: ex.ID, App: ex.App, Class: ex.Class,
			Sojourn: ex.Sojourn, Breakdown: ex.Breakdown, Hops: len(ex.Hops),
		}
	}
	return out
}

// FNV-1a, the same digest discipline the trace ring and live bus use.
const (
	fnvOffset uint64 = 14695981039346656037
	fnvPrime  uint64 = 1099511628211
)

func mix(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= v & 0xFF
		h *= fnvPrime
		v >>= 8
	}
	return h
}

func mixString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime
	}
	return h
}

// Hash digests the tracer's observable state — journey counts plus every
// retained exemplar, hops included. Two runs traced the same requests the
// same way iff their hashes match: the tracer's determinism witness.
func (t *Tracer) Hash() uint64 {
	h := mix(fnvOffset, t.started)
	h = mix(h, t.completed)
	h = mix(h, t.abandoned)
	h = mix(h, uint64(len(t.top)))
	for _, ex := range t.top {
		h = mix(h, ex.ID)
		h = mixString(h, ex.Kind)
		h = mix(h, uint64(int64(ex.Task)))
		h = mix(h, uint64(int64(ex.App)))
		h = mix(h, uint64(int64(ex.Class)))
		h = mix(h, ex.Flow)
		h = mix(h, uint64(int64(ex.Ring)))
		h = mix(h, uint64(ex.Arrive))
		h = mix(h, uint64(ex.Sojourn))
		h = mix(h, uint64(ex.Demand))
		h = mix(h, uint64(ex.Breakdown.Queue))
		h = mix(h, uint64(ex.Breakdown.TickQuant))
		h = mix(h, uint64(ex.Breakdown.PreemptDelay))
		h = mix(h, uint64(ex.Breakdown.Delivery))
		h = mix(h, uint64(ex.Breakdown.Service))
		h = mix(h, uint64(len(ex.Hops)))
		for _, hop := range ex.Hops {
			h = mix(h, uint64(int64(hop.CPU)))
			h = mix(h, uint64(hop.At))
			h = mix(h, uint64(hop.Wait))
			h = mix(h, uint64(hop.Queue))
			h = mix(h, uint64(hop.TickQuant))
			h = mix(h, uint64(hop.PreemptDelay))
			h = mix(h, uint64(hop.Delivery))
			h = mix(h, uint64(hop.Run))
			h = mixString(h, hop.End)
			h = mix(h, uint64(hop.UintrAt))
		}
	}
	return h
}
