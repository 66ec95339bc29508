package doctor

import (
	"fmt"

	"skyloft/internal/det"
	"skyloft/internal/obs"
	"skyloft/internal/simtime"
	"skyloft/internal/stats"
	"skyloft/internal/trace"
)

// WindowStats aggregates one fixed virtual-time window of the run: the
// continuous view of the run that a single end-of-run histogram hides
// (warm-up transients, throughput collapses, a queue that never drains).
type WindowStats struct {
	Start simtime.Time `json:"start_ns"`
	End   simtime.Time `json:"end_ns"`

	// Completed counts lifecycle spans that closed inside the window;
	// ThroughputRPS is that count scaled to per-second.
	Completed     int     `json:"completed"`
	ThroughputRPS float64 `json:"throughput_rps"`

	// Wakeup-latency percentiles of the wakeups dispatched in this window
	// (wake to dispatch, whether or not the span has closed since).
	WakeSamples uint64           `json:"wake_samples"`
	WakeP50     simtime.Duration `json:"wake_p50_ns"`
	WakeP99     simtime.Duration `json:"wake_p99_ns"`

	// RunqHighWater is the deepest the runnable queue got during the
	// window, its depth at the window's start included, reconstructed from
	// the event stream (wakes and preemption / yield re-enqueues push,
	// dispatches pop).
	RunqHighWater int `json:"runq_high_water"`

	// Event rates: raw counts of the window's scheduling activity.
	// Preempts double as the user-IPI delivery rate — every involuntary
	// preemption in the Skyloft engines rides a user interrupt.
	Dispatches uint64 `json:"dispatches"`
	Wakes      uint64 `json:"wakes"`
	Preempts   uint64 `json:"preempts"`
	Steals     uint64 `json:"steals"`

	// Injects counts fault-injection events (chaos mode) that landed in
	// the window — zero outside chaos runs. The fault-correlated detector
	// uses it to attribute tail windows to fault onset.
	Injects uint64 `json:"injects,omitempty"`

	// Lease-protocol activity (DESIGN.md §15) in the window — zero outside
	// oversubscription runs. LeaseRevokes counting grace-deadline
	// expirations lets skyloft-top watch forced revocation engage live.
	LeaseGrants  uint64 `json:"lease_grants,omitempty"`
	LeaseRevokes uint64 `json:"lease_revokes,omitempty"`
	LeaseReturns uint64 `json:"lease_returns,omitempty"`
}

// AppWindow is one application's slice of a window.
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

// Window is one closed window of a Fold: its stats, each application's
// slice in app order (names left empty), and the starvation findings raised
// in it.
type Window struct {
	Stats    WindowStats
	Apps     []AppWindow
	Findings []Finding
}

// Fold is the one windowed fold over the trace stream. The live bus feeds
// it from its ring tap and closes windows on the virtual clock; Analyze
// replays a recorded event window through it. The caller closes each window
// before feeding the first event at or past End — Close(End()) — or closes
// a final partial window early with Close(now).
//
// The runqueue depth (a lower bound: initial submissions enter without a
// Wake), the woken-but-undispatched wakeups and the span stitcher carry
// across windows; the counters reset at each close. Closed spans are
// dropped once their window has counted them, so the fold holds one
// window's spans, not the run's.
//
// Starvation is decided here and nowhere else: a wakeup that waits at
// least the threshold — measured at its dispatch, or at a window close
// while still pending — raises a finding in that window, and counts once
// in the run totals Starvation reports.
type Fold struct {
	width, starvation simtime.Duration
	start, end        simtime.Time

	st      *obs.Stitcher
	depth   int
	ws      WindowStats // the open window's counters
	wake    *stats.Hist
	pending map[int]pendingWake // by task
	apps    map[int]*appAcc     // apps seen in the open window
	accs    map[int]*appAcc     // every app's accumulator, reused
	starved map[int]starvAcc    // the open window's starvation, by app
	total   map[int]starvAcc    // the run's starvation, by app
}

// pendingWake is a woken, not yet dispatched task.
type pendingWake struct {
	at      simtime.Time
	app     int
	starved bool // already counted in the run totals
}

type appAcc struct {
	completed int
	run       simtime.Duration
	hist      *stats.Hist
}

type starvAcc struct {
	count   uint64
	firstAt simtime.Time
	worst   simtime.Duration
}

// NewFold opens a fold whose first window is [start, start+width).
// starvation is the threshold; 0 selects the doctor's default (10 ms).
func NewFold(start simtime.Time, width, starvation simtime.Duration) *Fold {
	if starvation <= 0 {
		starvation = defaultStarvation
	}
	return &Fold{
		width: width, starvation: starvation,
		start: start, end: start + width,
		st:      obs.NewStitcher(),
		wake:    stats.NewHist(),
		pending: map[int]pendingWake{},
		apps:    map[int]*appAcc{},
		accs:    map[int]*appAcc{},
		starved: map[int]starvAcc{},
		total:   map[int]starvAcc{},
	}
}

// Start and End bound the open window.
func (f *Fold) Start() simtime.Time { return f.start }
func (f *Fold) End() simtime.Time   { return f.end }

// Spans reports how many spans have closed so far, dropped ones included.
func (f *Fold) Spans() int { return f.st.Closed() }

// Feed folds one event into the open window. Events must arrive in
// recorded order and before End.
func (f *Fold) Feed(ev trace.Event) {
	ws := &f.ws
	switch ev.Kind {
	case trace.Dispatch:
		ws.Dispatches++
		if f.depth > 0 {
			f.depth--
		}
		if p, ok := f.pending[ev.Task]; ok {
			lat := ev.At - p.at
			f.wake.Record(lat)
			f.app(ev.App).hist.Record(lat)
			if lat >= f.starvation {
				f.starve(ev.App, p, lat)
			}
			delete(f.pending, ev.Task)
		}
	case trace.Wake:
		ws.Wakes++
		f.pending[ev.Task] = pendingWake{at: ev.At, app: ev.App}
		f.push()
	case trace.Preempt:
		ws.Preempts++
		f.push()
	case trace.Yield:
		f.push()
	case trace.Steal:
		ws.Steals++
	case trace.Inject:
		ws.Injects++
	case trace.LeaseGrant:
		ws.LeaseGrants++
	case trace.LeaseRevoke:
		ws.LeaseRevokes++
	case trace.LeaseReturn:
		ws.LeaseReturns++
	}
	f.st.Feed(ev)
}

func (f *Fold) push() {
	f.depth++
	f.ws.RunqHighWater = max(f.ws.RunqHighWater, f.depth)
}

// app returns id's accumulator for the open window, clearing the one left
// from an earlier window on the app's first use in this one.
func (f *Fold) app(id int) *appAcc {
	a := f.apps[id]
	if a == nil {
		a = f.accs[id]
		if a == nil {
			a = &appAcc{hist: stats.NewHist()}
			f.accs[id] = a
		} else {
			a.completed, a.run = 0, 0
			a.hist.Reset()
		}
		f.apps[id] = a
	}
	return a
}

// starve records wakeup p of app, which has waited lat: in the open
// window's finding, and in the run totals unless p was counted already.
func (f *Fold) starve(app int, p pendingWake, lat simtime.Duration) {
	s, ok := f.starved[app]
	if !ok {
		s.firstAt = p.at
	}
	s.count++
	s.worst = max(s.worst, lat)
	f.starved[app] = s

	t, ok := f.total[app]
	if !p.starved {
		if !ok || p.at < t.firstAt {
			t.firstAt = p.at
		}
		t.count++
	}
	t.worst = max(t.worst, lat)
	f.total[app] = t
}

// Close ends the open window at end and opens [end, end+width).
func (f *Fold) Close(end simtime.Time) Window {
	closed := f.st.TakeClosed()
	for _, s := range closed {
		a := f.app(s.App)
		a.completed++
		a.run += s.Run
	}
	// A task woken long ago and still undispatched at the close is already
	// starving — report it now, not when (if ever) it finally runs.
	for _, task := range det.SortedKeys(f.pending) {
		p := f.pending[task]
		if lat := end - p.at; lat >= f.starvation {
			f.starve(p.app, p, lat)
			p.starved = true
			f.pending[task] = p
		}
	}

	ws := f.ws
	ws.Start, ws.End = f.start, end
	ws.Completed = len(closed)
	ws.WakeSamples, ws.WakeP50, ws.WakeP99 = f.wake.Count(), f.wake.P50(), f.wake.P99()
	if width := end - f.start; width > 0 {
		ws.ThroughputRPS = float64(len(closed)) * float64(simtime.Second) / float64(width)
	}
	w := Window{Stats: ws}
	for _, id := range det.SortedKeys(f.apps) {
		a := f.apps[id]
		w.Apps = append(w.Apps, AppWindow{
			App:         id,
			Completed:   a.completed,
			WakeSamples: a.hist.Count(),
			WakeP50:     a.hist.P50(),
			WakeP99:     a.hist.P99(),
			WakeMax:     a.hist.Max(),
			Run:         a.run,
		})
	}
	for _, app := range det.SortedKeys(f.starved) {
		s := f.starved[app]
		w.Findings = append(w.Findings, Finding{
			Code:    CodeStarvation,
			App:     app,
			FirstAt: s.firstAt,
			Count:   s.count,
			Value:   float64(s.worst),
			Evidence: fmt.Sprintf("%d wakeups waited >= %v this window (worst %v)",
				s.count, f.starvation, s.worst),
		})
	}

	f.start, f.end = end, end+f.width
	f.ws = WindowStats{RunqHighWater: f.depth}
	f.wake.Reset()
	clear(f.apps)
	clear(f.starved)
	return w
}

// Starvation reports the run's starvation findings so far, one per app:
// each wakeup that waited at least the threshold counts once, and the worst
// is the longest wait seen, at a dispatch or a window close.
func (f *Fold) Starvation() []Finding {
	var out []Finding
	for _, app := range det.SortedKeys(f.total) {
		t := f.total[app]
		out = append(out, Finding{
			Code:    CodeStarvation,
			App:     app,
			FirstAt: t.firstAt,
			Count:   t.count,
			Value:   float64(t.worst),
			Evidence: fmt.Sprintf("%d wakeups waited >= %v for their first dispatch; worst %v",
				t.count, f.starvation, t.worst),
		})
	}
	return out
}

// wakeHist builds the overall wakeup-latency histogram from spans with a
// known wake instant.
func wakeHist(spans *obs.SpanSet) *stats.Hist {
	h := stats.NewHist()
	for _, s := range spans.Spans {
		if s.WakeKnown {
			h.Record(s.WakeLatency())
		}
	}
	return h
}

// buildWindows replays the event stream through a Fold. Windows are aligned
// to multiples of the width, as the live bus's are when it attaches at time
// 0, and the width doubles until the run fits in maxWindows windows, so a
// long sweep cannot blow up the report. The second result is the fold's
// run-total starvation.
func buildWindows(events []trace.Event, cfg Config) ([]WindowStats, []Finding) {
	if len(events) == 0 {
		return nil, nil
	}
	t0, tN := events[0].At, events[len(events)-1].At
	w := cfg.Window
	for tN/w-t0/w+1 > maxWindows {
		w *= 2
	}
	f := NewFold(t0-t0%w, w, cfg.StarvationThreshold)
	out := make([]WindowStats, 0, tN/w-t0/w+1)
	for _, ev := range events {
		for ev.At >= f.End() {
			out = append(out, f.Close(f.End()).Stats)
		}
		f.Feed(ev)
	}
	out = append(out, f.Close(f.End()).Stats)
	return out, f.Starvation()
}
