package obs

import (
	"fmt"
	"io"

	"skyloft/internal/det"
	"skyloft/internal/simtime"
	"skyloft/internal/stats"
	"skyloft/internal/trace"
)

// Span is one runnable episode of a task, stitched from the raw event
// stream: it opens when the task becomes runnable (Wake, or first Dispatch
// for a newly submitted task), and closes when the task parks (Block/Sleep)
// or exits. The sojourn decomposes exactly into wakeup latency (wake →
// first dispatch), Run (on-CPU time, including fault stalls that hold the
// core), and Preempted (runnable-but-queued time after preemptions and
// yields); Blocked records the off-CPU park that preceded this episode.
type Span struct {
	Task int
	App  int

	Wake          simtime.Time
	FirstDispatch simtime.Time
	End           simtime.Time
	EndKind       trace.Kind // Block, Sleep or Exit

	Run        simtime.Duration
	Preempted  simtime.Duration
	Blocked    simtime.Duration // park before this span; 0 for a task's first
	Dispatches int

	// WakeKnown is false when the span was opened by a Dispatch with no
	// preceding Wake in the window (initial submission, or ring
	// truncation); such spans have no meaningful wakeup latency.
	WakeKnown bool
}

// WakeLatency reports wake → first dispatch — the paper's §5.1 metric.
func (s Span) WakeLatency() simtime.Duration {
	return simtime.Duration(s.FirstDispatch - s.Wake)
}

// Sojourn reports the episode's total runnable lifetime.
func (s Span) Sojourn() simtime.Duration { return simtime.Duration(s.End - s.Wake) }

func (s Span) String() string {
	return fmt.Sprintf("task=%d app=%d wake=%v disp=%v end=%v(%v) run=%v preempted=%v blocked=%v n=%d",
		s.Task, s.App, s.Wake, s.FirstDispatch, s.End, s.EndKind,
		s.Run, s.Preempted, s.Blocked, s.Dispatches)
}

// SpanSet is the result of stitching one event window.
type SpanSet struct {
	Spans []Span
	// Incomplete counts episodes still open when the window ended.
	Incomplete int
	// Orphans counts events that could not be attributed to an episode
	// (the bounded ring evicted their context); they are skipped, never
	// guessed at.
	Orphans int
}

// taskStitch is the per-task stitching state.
type taskStitch struct {
	open         bool
	span         Span
	running      bool
	onSince      simtime.Time
	readySince   simtime.Time
	lastEnd      simtime.Time
	lastEndValid bool
}

// Stitcher folds a chronological event stream into lifecycle spans one
// event at a time. It is the incremental form of BuildSpans: feeding the
// same events in the same order produces the identical SpanSet, but
// streaming consumers (the doctor's window fold) can take spans as they
// close instead of holding the run's spans until it ends.
type Stitcher struct {
	ss    SpanSet
	tasks map[int]*taskStitch
	taken int // spans handed out by TakeClosed and forgotten
}

// NewStitcher returns an empty stitcher.
func NewStitcher() *Stitcher {
	return &Stitcher{tasks: map[int]*taskStitch{}}
}

func (sp *Stitcher) get(id int) *taskStitch {
	st := sp.tasks[id]
	if st == nil {
		st = &taskStitch{}
		sp.tasks[id] = st
	}
	return st
}

// Feed folds one event into the stitching state. Events must arrive in
// recorded order.
func (sp *Stitcher) Feed(ev trace.Event) {
	ss := &sp.ss
	switch ev.Kind {
	case trace.Wake:
		st := sp.get(ev.Task)
		if st.open {
			// Context loss (truncated window): abandon the half-seen
			// episode rather than fabricating segments.
			ss.Orphans++
			st.open = false
		}
		st.span = Span{Task: ev.Task, App: ev.App, Wake: ev.At, WakeKnown: true}
		if st.lastEndValid {
			st.span.Blocked = simtime.Duration(ev.At - st.lastEnd)
		}
		st.open = true
		st.running = false
		st.readySince = ev.At
	case trace.Dispatch:
		st := sp.get(ev.Task)
		if !st.open {
			// Newly submitted task (no Wake precedes the first
			// dispatch) or truncated history: open an episode with an
			// unknown wake instant.
			st.span = Span{Task: ev.Task, App: ev.App, Wake: ev.At}
			st.open = true
		}
		if st.running {
			ss.Orphans++ // double dispatch: corrupt window
			return
		}
		st.span.Dispatches++
		if st.span.Dispatches == 1 {
			st.span.FirstDispatch = ev.At
		} else {
			st.span.Preempted += simtime.Duration(ev.At - st.readySince)
		}
		st.running = true
		st.onSince = ev.At
	case trace.Preempt, trace.Yield:
		st := sp.get(ev.Task)
		if !st.open || !st.running {
			ss.Orphans++
			return
		}
		st.span.Run += simtime.Duration(ev.At - st.onSince)
		st.running = false
		st.readySince = ev.At
	case trace.Block, trace.Sleep, trace.Exit:
		st := sp.get(ev.Task)
		if !st.open || !st.running {
			ss.Orphans++
			return
		}
		st.span.Run += simtime.Duration(ev.At - st.onSince)
		st.span.End = ev.At
		st.span.EndKind = ev.Kind
		ss.Spans = append(ss.Spans, st.span)
		st.open = false
		st.running = false
		st.lastEnd = ev.At
		st.lastEndValid = ev.Kind != trace.Exit
	case trace.Steal, trace.AppSwitch, trace.Fault:
		// Steal moves the queued task between runqueues (still
		// Preempted time); AppSwitch is core-scoped; Fault holds the
		// core, so its stall stays inside the running segment.
	}
}

// TakeClosed returns the spans that closed since the previous TakeClosed
// call, in close order, and forgets them: Result no longer lists them. The
// returned slice aliases the stitcher's buffer, so it is valid only until
// the next Feed.
func (sp *Stitcher) TakeClosed() []Span {
	out := sp.ss.Spans
	sp.taken += len(out)
	sp.ss.Spans = out[:0]
	return out
}

// Closed reports how many spans have closed so far, taken ones included.
func (sp *Stitcher) Closed() int { return sp.taken + len(sp.ss.Spans) }

// Result finalises the stitch: episodes still open become Incomplete, and
// the accumulated SpanSet, less any taken spans, is returned. The stitcher
// can keep feeding after Result; a later Result recounts the then-open
// episodes.
func (sp *Stitcher) Result() *SpanSet {
	sp.ss.Incomplete = 0
	for _, st := range sp.tasks {
		if st.open {
			sp.ss.Incomplete++
		}
	}
	return &sp.ss
}

// BuildSpans stitches a chronological event window into lifecycle spans.
// The input is exactly what trace.Ring retains — no extra instrumentation
// is consulted, so identical event streams yield identical span sets.
func BuildSpans(events []trace.Event) *SpanSet {
	sp := NewStitcher()
	for _, ev := range events {
		sp.Feed(ev)
	}
	return sp.Result()
}

// Validate checks the span set's internal accounting identities: segment
// ordering, non-negative components, and — for spans with a known wake —
// the exact decomposition wakeLatency + run + preempted = sojourn.
func (ss *SpanSet) Validate() error {
	for i, s := range ss.Spans {
		if s.Dispatches < 1 {
			return fmt.Errorf("span %d: closed without a dispatch: %v", i, s)
		}
		if s.FirstDispatch < s.Wake || s.End < s.FirstDispatch {
			return fmt.Errorf("span %d: segment order violated: %v", i, s)
		}
		if s.Run < 0 || s.Preempted < 0 || s.Blocked < 0 {
			return fmt.Errorf("span %d: negative segment: %v", i, s)
		}
		if got, want := s.WakeLatency()+s.Run+s.Preempted, s.Sojourn(); got != want {
			return fmt.Errorf("span %d: decomposition %v != sojourn %v: %v", i, got, want, s)
		}
	}
	return nil
}

// FNV-1a over span fields: the determinism witness for span stitching.
const (
	fnvOffset uint64 = 14695981039346656037
	fnvPrime  uint64 = 1099511628211
)

func fnvMix(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= v & 0xFF
		h *= fnvPrime
		v >>= 8
	}
	return h
}

// Hash digests every span's fields in order. Two runs produced identical
// span sets iff their counts and hashes match.
func (ss *SpanSet) Hash() uint64 {
	h := fnvOffset
	for _, s := range ss.Spans {
		h = fnvMix(h, uint64(int64(s.Task)))
		h = fnvMix(h, uint64(int64(s.App)))
		h = fnvMix(h, uint64(s.Wake))
		h = fnvMix(h, uint64(s.FirstDispatch))
		h = fnvMix(h, uint64(s.End))
		h = fnvMix(h, uint64(s.EndKind))
		h = fnvMix(h, uint64(s.Run))
		h = fnvMix(h, uint64(s.Preempted))
		h = fnvMix(h, uint64(s.Blocked))
		h = fnvMix(h, uint64(int64(s.Dispatches)))
	}
	return h
}

// AppSpanStats aggregates one application's spans.
type AppSpanStats struct {
	App        int
	Spans      int
	WakeupHist *stats.Hist // spans with a known wake only
	Run        simtime.Duration
	Preempted  simtime.Duration
	Blocked    simtime.Duration
}

// PerApp buckets the spans by application, feeding each app's
// wakeup-latency histogram. Results are ordered by app ID.
func (ss *SpanSet) PerApp() []AppSpanStats {
	byApp := map[int]*AppSpanStats{}
	for _, s := range ss.Spans {
		a := byApp[s.App]
		if a == nil {
			a = &AppSpanStats{App: s.App, WakeupHist: stats.NewHist()}
			byApp[s.App] = a
		}
		a.Spans++
		a.Run += s.Run
		a.Preempted += s.Preempted
		a.Blocked += s.Blocked
		if s.WakeKnown {
			a.WakeupHist.Record(s.WakeLatency())
		}
	}
	out := make([]AppSpanStats, 0, len(byApp))
	for _, app := range det.SortedKeys(byApp) {
		out = append(out, *byApp[app])
	}
	return out
}

// Report writes the per-app span summary: wakeup-latency percentiles
// (derived purely from spans) and aggregate time shares. appNames may be
// nil or shorter than the app ID range.
func (ss *SpanSet) Report(w io.Writer, appNames []string) error {
	if _, err := fmt.Fprintf(w, "spans: %d complete, %d incomplete, %d orphan events\n",
		len(ss.Spans), ss.Incomplete, ss.Orphans); err != nil {
		return err
	}
	for _, a := range ss.PerApp() {
		name := fmt.Sprintf("app %d", a.App)
		if a.App >= 0 && a.App < len(appNames) {
			name = appNames[a.App]
		}
		h := a.WakeupHist
		if _, err := fmt.Fprintf(w,
			"  %-12s spans=%-6d wakeup p50=%-10v p99=%-10v p99.9=%-10v run=%v preempted=%v blocked=%v\n",
			name, a.Spans, h.P50(), h.P99(), h.P999(), a.Run, a.Preempted, a.Blocked); err != nil {
			return err
		}
	}
	return nil
}
