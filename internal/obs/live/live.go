// Package live is the streaming telemetry bus: it feeds the trace stream
// through the sched-doctor's window fold (doctor.Fold: window stats,
// per-app wakeup percentiles, starvation findings), adds metrics-registry
// deltas, occupancy and causal exemplars, and publishes the windows
// incrementally at virtual-time boundaries instead of only at run end — the
// online view that post-hoc spans, Perfetto exports and doctor reports
// cannot give. The doctor replays recorded events through the same fold, so
// the two cannot disagree.
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

	"skyloft/internal/obs"
	"skyloft/internal/obs/causal"
	"skyloft/internal/obs/doctor"
	"skyloft/internal/simtime"
	"skyloft/internal/trace"
)

// DefaultWindow is the snapshot window width when Config.Window is zero.
const DefaultWindow = simtime.Millisecond

// DefaultHistory is the published-snapshot ring capacity (the /history
// endpoint's reach) when Config.History is zero.
const DefaultHistory = 64

// Config tunes the bus.
type Config struct {
	// Window is the snapshot window width in virtual time.
	Window simtime.Duration
	// History bounds the published-snapshot ring served over HTTP.
	History int
	// Starvation is the live starvation threshold: a task whose
	// wake-to-dispatch latency reaches it (or that is still undispatched
	// that long after its wake when the window closes) raises a starvation
	// finding in that window's snapshot. 0 selects the doctor's default.
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
	Apps        []doctor.AppWindow  `json:"apps,omitempty"`
	Metrics     []MetricDelta       `json:"metrics,omitempty"`
	Findings    []doctor.Finding    `json:"findings,omitempty"`
	Occupancy   []obs.CoreOccupancy `json:"occupancy,omitempty"`
	Exemplars   []causal.Summary    `json:"exemplars,omitempty"`
	TotalEvents uint64              `json:"total_events"`
	TotalSpans  int                 `json:"total_spans"`
	Partial     bool                `json:"partial,omitempty"` // final flush of an unfinished window
}

// Bus is the live telemetry bus. Attach wires it; all bus state is mutated
// on the simulation thread only (tap + boundary events); the published
// snapshot ring is the sole shared surface, guarded by a mutex for the
// HTTP server and host-side readers.
type Bus struct {
	cfg Config
	src Source

	fold *doctor.Fold
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
	b := &Bus{
		cfg:        cfg,
		src:        src,
		fold:       doctor.NewFold(src.Clock.Now(), cfg.Window, cfg.Starvation),
		prev:       map[string]float64{},
		streamHash: fnvOffset,
	}
	if b.cfg.Recorder != nil {
		b.cfg.Recorder.attach(b)
	}
	src.Ring.SetTap(b.onEvent)
	// The bus schedules only its own window-boundary ticks; they carry no
	// sim-visible effect and the stream hash is proven topology-invariant.
	//simlint:allow attachonly the bus owns its window-boundary tick events
	src.Clock.At(b.fold.End(), b.tick)
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
	for ev.At >= b.fold.End() {
		b.publish(false)
	}
	b.fold.Feed(ev)
	if r := b.cfg.Recorder; r != nil {
		r.record(ev)
	}
	b.dirty = true
}

// tick is the boundary event: close windows up to now and re-arm.
func (b *Bus) tick() {
	if b.closed {
		return
	}
	for b.src.Clock.Now() >= b.fold.End() {
		b.publish(false)
	}
	//simlint:allow attachonly the bus owns its window-boundary tick events
	b.src.Clock.At(b.fold.End(), b.tick)
}

// publish closes the fold's current window (which opens the next), builds
// the snapshot, folds its canonical form into the stream hash, and hands it
// to the exporter, the history ring and the flight recorder.
func (b *Bus) publish(partial bool) {
	end := b.fold.End()
	if partial {
		end = b.src.Clock.Now()
	}
	snap := b.buildSnapshot(b.fold.Close(end), partial)
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
	b.dirty = false
}

func (b *Bus) buildSnapshot(w doctor.Window, partial bool) Snapshot {
	snap := Snapshot{
		Seq:         b.nwin,
		Window:      w.Stats,
		Apps:        w.Apps,
		Findings:    w.Findings,
		TotalEvents: b.src.Ring.Total(),
		TotalSpans:  b.fold.Spans(),
		Partial:     partial,
	}
	for i := range snap.Apps {
		if id := snap.Apps[i].App; id >= 0 && id < len(b.src.AppNames) {
			snap.Apps[i].Name = b.src.AppNames[id]
		}
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
	if b.dirty || b.src.Clock.Now() > b.fold.Start() {
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
