// Package live is the streaming telemetry bus: it folds the trace stream
// into windowed snapshots (doctor-style window stats, per-app wakeup
// percentiles, metrics-registry deltas, occupancy, live pathology findings)
// and publishes them incrementally at virtual-time boundaries instead of
// only at run end — the online view that post-hoc spans, Perfetto exports
// and doctor reports cannot give.
//
// # Attach-only
//
// The bus observes through two channels only: a trace.Ring tap (read-only —
// it never mutates scheduler state) and a self-rescheduling boundary event
// on the virtual clock (the same mechanism as obs.Profiler). Neither
// perturbs the schedule, so golden trace and span hashes are bit-identical
// with the bus attached; the perturbation tests pin this.
//
// # Window closing
//
// Windows close lazily from the tap — the first event recorded at or past
// the boundary closes every window up to it — plus an explicit boundary
// event so idle stretches still publish. Both run in dispatch order, so the
// window sequence is a pure function of the simulation. The stream hash
// covers every published snapshot's JSON line: same seed and plan hash
// identically.
package live

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"

	"skyloft/internal/det"
	"skyloft/internal/obs"
	"skyloft/internal/obs/causal"
	"skyloft/internal/obs/doctor"
	"skyloft/internal/simtime"
	"skyloft/internal/stats"
	"skyloft/internal/trace"
)

// DefaultWindow is the snapshot window width when Config.Window is zero.
const DefaultWindow = simtime.Millisecond

// DefaultHistory is the published-snapshot ring capacity (the /history
// endpoint's reach) when Config.History is zero.
const DefaultHistory = 64

// DefaultStarvation is the live starvation threshold when
// Config.Starvation is zero — aligned with the doctor's post-hoc detector.
const DefaultStarvation = 10 * simtime.Millisecond

// Config tunes the bus.
type Config struct {
	// Window is the snapshot window width in virtual time.
	Window simtime.Duration
	// History bounds the published-snapshot ring served over HTTP.
	History int
	// Starvation is the live starvation threshold: a task whose
	// wake-to-dispatch latency reaches it (or that is still undispatched
	// that long after its wake when the window closes) raises a starvation
	// finding in that window's snapshot.
	Starvation simtime.Duration
	// Out, when non-nil, receives one NDJSON line per snapshot, written by
	// a host-side publisher goroutine so file I/O never blocks dispatch.
	Out io.Writer
	// Recorder, when non-nil, retains the last K windows of full-fidelity
	// events and dumps a post-mortem bundle when triggered.
	Recorder *Recorder
}

// Source is what the bus observes. Clock, Ring and Registry are required;
// Profiler, AppNames and Workers enrich snapshots and dumps when present.
type Source struct {
	Clock    simtime.EventCore
	Ring     *trace.Ring
	Registry *obs.Registry
	Profiler *obs.Profiler
	AppNames []string
	Workers  int
	// Causal, when non-nil, contributes the causal tracer's top-K
	// slow-request exemplar summaries to each snapshot and its full
	// exemplar document to flight-recorder bundles.
	Causal *causal.Tracer
}

// AppWindow is one application's slice of a snapshot window.
type AppWindow struct {
	App         int              `json:"app"`
	Name        string           `json:"name,omitempty"`
	Completed   int              `json:"completed"`
	WakeSamples uint64           `json:"wake_samples"`
	WakeP50     simtime.Duration `json:"wake_p50_ns"`
	WakeP99     simtime.Duration `json:"wake_p99_ns"`
	WakeMax     simtime.Duration `json:"wake_max_ns"`
	Run         simtime.Duration `json:"run_ns"`
}

// MetricDelta is one registry metric's value and per-window movement.
type MetricDelta struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Delta float64 `json:"delta"`
}

// Snapshot is one published window.
type Snapshot struct {
	Seq         int                 `json:"seq"`
	Window      doctor.WindowStats  `json:"window"`
	Apps        []AppWindow         `json:"apps,omitempty"`
	Metrics     []MetricDelta       `json:"metrics,omitempty"`
	Findings    []doctor.Finding    `json:"findings,omitempty"`
	Occupancy   []obs.CoreOccupancy `json:"occupancy,omitempty"`
	Exemplars   []causal.Summary    `json:"exemplars,omitempty"`
	TotalEvents uint64              `json:"total_events"`
	TotalSpans  int                 `json:"total_spans"`
	Partial     bool                `json:"partial,omitempty"` // final flush of an unfinished window
}

// pendingWake tracks a woken, not-yet-dispatched task.
type pendingWake struct {
	at  simtime.Time
	app int
}

// appAcc accumulates one app's window stats.
type appAcc struct {
	completed int
	run       simtime.Duration
	hist      *stats.Hist
}

// starvAcc accumulates one app's starvation evidence within a window.
type starvAcc struct {
	count   uint64
	firstAt simtime.Time
	worst   simtime.Duration
}

// Bus is the live telemetry bus. Attach wires it; all bus state is mutated
// on the simulation thread only (tap + boundary events); the published
// snapshot ring is the sole shared surface, guarded by a mutex for the
// HTTP server and host-side readers.
type Bus struct {
	cfg Config
	src Source

	st       *obs.Stitcher
	winStart simtime.Time
	winEnd   simtime.Time

	depth   int // runnable-queue depth, reconstructed; carried across windows
	depthHW int

	dispatches, wakes, preempts, steals, injects uint64
	leaseGrants, leaseRevokes, leaseReturns      uint64

	// Window accumulators, reset in place at every window close: apps holds
	// the apps seen this window, accs every app's accumulator ever made
	// (its histogram is reused rather than reallocated per window).
	wakeHist *stats.Hist
	pending  map[int]pendingWake
	apps     map[int]*appAcc
	accs     map[int]*appAcc
	starved  map[int]starvAcc

	prev map[string]float64 // last metrics snapshot, for deltas

	streamHash uint64
	nwin       int
	closed     bool
	dirty      bool // events folded since the last publish

	mu   sync.Mutex
	hist []Snapshot // published ring, newest last

	ch   chan []byte
	wg   sync.WaitGroup
	werr error // writeLoop's first error; read after wg.Wait
}

// Attach wires a bus to the source and schedules the first window boundary.
// Call before the run starts (it assumes the current virtual time is the
// first window's start) and Close after it ends.
func Attach(cfg Config, src Source) *Bus {
	if src.Clock == nil || src.Ring == nil {
		panic("live: Attach requires Clock and Ring")
	}
	if cfg.Window <= 0 {
		cfg.Window = DefaultWindow
	}
	if cfg.History <= 0 {
		cfg.History = DefaultHistory
	}
	if cfg.Starvation <= 0 {
		cfg.Starvation = DefaultStarvation
	}
	b := &Bus{
		cfg:        cfg,
		src:        src,
		st:         obs.NewStitcher(),
		wakeHist:   stats.NewHist(),
		pending:    map[int]pendingWake{},
		apps:       map[int]*appAcc{},
		accs:       map[int]*appAcc{},
		starved:    map[int]starvAcc{},
		prev:       map[string]float64{},
		streamHash: fnvOffset,
	}
	b.winStart = src.Clock.Now()
	b.winEnd = b.winStart + simtime.Time(cfg.Window)
	if b.cfg.Recorder != nil {
		b.cfg.Recorder.attach(b)
	}
	src.Ring.SetTap(b.onEvent)
	// The bus schedules only its own window-boundary ticks; they carry no
	// sim-visible effect and the stream hash is proven topology-invariant.
	//simlint:allow attachonly the bus owns its window-boundary tick events
	src.Clock.At(b.winEnd, b.tick)
	if cfg.Out != nil {
		b.ch = make(chan []byte, 64)
		b.wg.Add(1)
		go b.writeLoop()
	}
	return b
}

// onEvent is the ring tap: close any window the event has moved past, then
// fold the event into the current one.
func (b *Bus) onEvent(ev trace.Event) {
	for ev.At >= b.winEnd {
		b.publish(false)
	}
	switch ev.Kind {
	case trace.Dispatch:
		b.dispatches++
		if b.depth > 0 {
			b.depth--
		}
		if p, ok := b.pending[ev.Task]; ok {
			lat := simtime.Duration(ev.At - p.at)
			b.wakeHist.Record(lat)
			b.app(ev.App).hist.Record(lat)
			if lat >= b.cfg.Starvation {
				b.starve(ev.App, p.at, lat)
			}
			delete(b.pending, ev.Task)
		}
	case trace.Wake:
		b.wakes++
		b.pending[ev.Task] = pendingWake{at: ev.At, app: ev.App}
		b.bumpDepth()
	case trace.Preempt:
		b.preempts++
		b.bumpDepth()
	case trace.Yield:
		b.bumpDepth()
	case trace.Steal:
		b.steals++
	case trace.Inject:
		b.injects++
	case trace.LeaseGrant:
		b.leaseGrants++
	case trace.LeaseRevoke:
		b.leaseRevokes++
	case trace.LeaseReturn:
		b.leaseReturns++
	}
	if r := b.cfg.Recorder; r != nil {
		r.record(ev)
	}
	b.st.Feed(ev)
	b.dirty = true
}

func (b *Bus) bumpDepth() {
	b.depth++
	if b.depth > b.depthHW {
		b.depthHW = b.depth
	}
}

// app returns id's accumulator for the current window, clearing the one
// left from an earlier window on the app's first event in this one.
func (b *Bus) app(id int) *appAcc {
	a := b.apps[id]
	if a == nil {
		a = b.accs[id]
		if a == nil {
			a = &appAcc{hist: stats.NewHist()}
			b.accs[id] = a
		} else {
			a.completed, a.run = 0, 0
			a.hist.Reset()
		}
		b.apps[id] = a
	}
	return a
}

func (b *Bus) starve(app int, firstAt simtime.Time, lat simtime.Duration) {
	s, ok := b.starved[app]
	if !ok {
		s.firstAt = firstAt
	}
	s.count++
	if lat > s.worst {
		s.worst = lat
	}
	b.starved[app] = s
}

// tick is the boundary event: close windows up to now and re-arm.
func (b *Bus) tick() {
	if b.closed {
		return
	}
	for b.src.Clock.Now() >= b.winEnd {
		b.publish(false)
	}
	//simlint:allow attachonly the bus owns its window-boundary tick events
	b.src.Clock.At(b.winEnd, b.tick)
}

// publish closes the current window: build the snapshot, fold its canonical
// form into the stream hash, hand it to the exporter, the history ring and
// the flight recorder, then open the next window.
func (b *Bus) publish(partial bool) {
	end := b.winEnd
	if partial {
		end = b.src.Clock.Now()
	}
	snap := b.buildSnapshot(end, partial)
	line, err := json.Marshal(&snap)
	if err != nil {
		panic(fmt.Sprintf("live: snapshot marshal: %v", err))
	}
	h := b.streamHash
	for _, c := range line {
		h = (h ^ uint64(c)) * fnvPrime
	}
	b.streamHash = (h ^ '\n') * fnvPrime
	b.nwin++

	if b.ch != nil {
		b.ch <- append(line, '\n')
	}

	b.mu.Lock()
	if len(b.hist) >= b.cfg.History {
		copy(b.hist, b.hist[1:])
		b.hist = b.hist[:len(b.hist)-1]
	}
	b.hist = append(b.hist, snap)
	b.mu.Unlock()

	if r := b.cfg.Recorder; r != nil {
		r.roll(snap)
		if len(snap.Findings) > 0 {
			r.Trigger("live finding: " + snap.Findings[0].Code)
		}
	}

	// Open the next window.
	b.winStart = end
	b.winEnd = end + simtime.Time(b.cfg.Window)
	b.depthHW = b.depth
	b.dispatches, b.wakes, b.preempts, b.steals, b.injects = 0, 0, 0, 0, 0
	b.leaseGrants, b.leaseRevokes, b.leaseReturns = 0, 0, 0
	b.wakeHist.Reset()
	clear(b.apps)
	clear(b.starved)
	b.dirty = false
}

func (b *Bus) buildSnapshot(end simtime.Time, partial bool) Snapshot {
	closed := b.st.TakeClosed()
	for _, s := range closed {
		a := b.app(s.App)
		a.completed++
		a.run += s.Run
	}
	// A task woken long ago and still undispatched at the close is already
	// starving — report it now, not when (if ever) it finally runs.
	for _, task := range det.SortedKeys(b.pending) {
		p := b.pending[task]
		if lat := simtime.Duration(end - p.at); lat >= b.cfg.Starvation {
			b.starve(p.app, p.at, lat)
		}
	}

	width := simtime.Duration(end - b.winStart)
	ws := doctor.WindowStats{
		Start:         b.winStart,
		End:           end,
		Completed:     len(closed),
		WakeSamples:   b.wakeHist.Count(),
		WakeP50:       b.wakeHist.P50(),
		WakeP99:       b.wakeHist.P99(),
		RunqHighWater: b.depthHW,
		Dispatches:    b.dispatches,
		Wakes:         b.wakes,
		Preempts:      b.preempts,
		Steals:        b.steals,
		Injects:       b.injects,
		LeaseGrants:   b.leaseGrants,
		LeaseRevokes:  b.leaseRevokes,
		LeaseReturns:  b.leaseReturns,
	}
	if width > 0 {
		ws.ThroughputRPS = float64(len(closed)) * float64(simtime.Second) / float64(width)
	}

	snap := Snapshot{
		Seq:         b.nwin,
		Window:      ws,
		TotalEvents: b.src.Ring.Total(),
		TotalSpans:  b.st.Closed(),
		Partial:     partial,
	}
	for _, id := range det.SortedKeys(b.apps) {
		a := b.apps[id]
		aw := AppWindow{
			App:         id,
			Completed:   a.completed,
			WakeSamples: a.hist.Count(),
			WakeP50:     a.hist.P50(),
			WakeP99:     a.hist.P99(),
			WakeMax:     a.hist.Max(),
			Run:         a.run,
		}
		if id >= 0 && id < len(b.src.AppNames) {
			aw.Name = b.src.AppNames[id]
		}
		snap.Apps = append(snap.Apps, aw)
	}
	for _, app := range det.SortedKeys(b.starved) {
		s := b.starved[app]
		snap.Findings = append(snap.Findings, doctor.Finding{
			Code:    doctor.CodeStarvation,
			App:     app,
			FirstAt: s.firstAt,
			Count:   s.count,
			Value:   float64(s.worst),
			Evidence: fmt.Sprintf("%d wakeups waited >= %v this window (worst %v)",
				s.count, b.cfg.Starvation, s.worst),
		})
	}
	if b.src.Registry != nil {
		for _, s := range b.src.Registry.Snapshot() {
			snap.Metrics = append(snap.Metrics, MetricDelta{
				Name:  s.Name,
				Value: s.Value,
				Delta: s.Value - b.prev[s.Name],
			})
			b.prev[s.Name] = s.Value
		}
	}
	if b.src.Profiler != nil {
		snap.Occupancy = b.src.Profiler.Report()
	}
	if b.src.Causal != nil {
		snap.Exemplars = b.src.Causal.Summaries()
	}
	return snap
}

// writeLoop drains pre-encoded NDJSON lines to the configured writer. It is
// the bus's only goroutine besides the optional HTTP server: host-side
// output plumbing, fed in publish order through an ordered channel, never
// reading or writing simulation state.
func (b *Bus) writeLoop() {
	defer b.wg.Done()
	for line := range b.ch {
		if _, err := b.cfg.Out.Write(line); err != nil && b.werr == nil {
			b.werr = err
		}
	}
}

// Close flushes the final partial window, detaches the tap and stops the
// publisher. The bus must not be used afterwards; the history ring stays
// readable. It returns the first exporter write error, if any.
func (b *Bus) Close() error {
	if b.closed {
		return b.werr
	}
	b.closed = true
	if b.dirty || b.src.Clock.Now() > b.winStart {
		b.publish(true)
	}
	b.src.Ring.SetTap(nil)
	if b.ch != nil {
		close(b.ch)
		b.wg.Wait()
	}
	return b.werr
}

// StreamHash is the determinism witness over every published snapshot.
// Identical seed and plan produce an identical stream hash.
func (b *Bus) StreamHash() uint64 { return b.streamHash }

// Windows reports how many snapshots have been published.
func (b *Bus) Windows() int { return b.nwin }

// Recorder returns the attached flight recorder, if any.
func (b *Bus) Recorder() *Recorder { return b.cfg.Recorder }

// Trigger fires the attached flight recorder (no-op without one) — the
// bridge external detectors use: wire
// checker.OnViolation = func(msg string) { bus.Trigger("invariant: " + msg) }.
func (b *Bus) Trigger(reason string) {
	if b.cfg.Recorder != nil {
		b.cfg.Recorder.Trigger(reason)
	}
}

// Latest returns the most recent snapshot.
func (b *Bus) Latest() (Snapshot, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if len(b.hist) == 0 {
		return Snapshot{}, false
	}
	return b.hist[len(b.hist)-1], true
}

// History returns the retained snapshots with Seq > since (since < 0: all),
// oldest first. Snapshots are immutable once published; the returned slice
// is the caller's.
func (b *Bus) History(since int) []Snapshot {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make([]Snapshot, 0, len(b.hist))
	for _, s := range b.hist {
		if s.Seq > since {
			out = append(out, s)
		}
	}
	return out
}

const (
	fnvOffset uint64 = 14695981039346656037
	fnvPrime  uint64 = 1099511628211
)
