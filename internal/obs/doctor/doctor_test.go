package doctor

import (
	"bytes"
	"strings"
	"testing"

	"skyloft/internal/simtime"
	"skyloft/internal/stats"
	"skyloft/internal/trace"
)

// attribScenario is a hand-built single-core trace exercising all four
// attribution buckets:
//
//	task 1 wakes into an idle core            -> pure delivery (1 µs)
//	task 2 waits for task 1 to block          -> queue (48 µs) + delivery
//	task 3 waits for task 2 to be preempted   -> tick quantisation (10 µs,
//	        the configured period) + preempt delay (5 µs) + delivery
func attribScenario() []trace.Event {
	ev := func(at simtime.Time, k trace.Kind, cpu, task int) trace.Event {
		return trace.Event{At: at, Kind: k, CPU: cpu, Task: task, App: 0}
	}
	return []trace.Event{
		ev(0, trace.Wake, -1, 1),
		ev(1000, trace.Dispatch, 0, 1),
		ev(2000, trace.Wake, -1, 2),
		ev(50000, trace.Block, 0, 1),
		ev(51000, trace.Dispatch, 0, 2),
		ev(60000, trace.Wake, -1, 3),
		ev(75000, trace.Preempt, 0, 2),
		ev(76000, trace.Dispatch, 0, 3),
		ev(80000, trace.Block, 0, 3),
		ev(81000, trace.Dispatch, 0, 2),
		ev(90000, trace.Block, 0, 2),
	}
}

func TestAttributionBuckets(t *testing.T) {
	events := attribScenario()
	cfg := Config{
		TailQuantile: 0.01, // threshold = fastest span: every span is "tail"
		TickPeriod:   10 * simtime.Microsecond,
	}
	r := Analyze(events, nil, cfg)
	if len(r.Attribution) != 1 {
		t.Fatalf("attribution rows = %d, want 1", len(r.Attribution))
	}
	a := r.Attribution[0]
	if a.App != 0 || a.TailSpans != 3 {
		t.Fatalf("unexpected row: %+v", a)
	}
	want := AppAttribution{
		Queue:        48 * simtime.Microsecond,
		TickQuant:    10 * simtime.Microsecond,
		PreemptDelay: 5 * simtime.Microsecond,
		Delivery:     3 * simtime.Microsecond,
	}
	if a.Queue != want.Queue || a.TickQuant != want.TickQuant ||
		a.PreemptDelay != want.PreemptDelay || a.Delivery != want.Delivery {
		t.Fatalf("buckets = q=%v tq=%v pd=%v dl=%v, want q=%v tq=%v pd=%v dl=%v",
			a.Queue, a.TickQuant, a.PreemptDelay, a.Delivery,
			want.Queue, want.TickQuant, want.PreemptDelay, want.Delivery)
	}
	// The decomposition is exact: bucket sum == sum of tail wakeup
	// latencies (1 + 49 + 16 µs).
	if a.Total() != 66*simtime.Microsecond {
		t.Fatalf("total = %v, want 66µs", a.Total())
	}
	if a.MaxLatency != 49*simtime.Microsecond {
		t.Fatalf("max latency = %v, want 49µs", a.MaxLatency)
	}
}

func TestAttributionUnknownTickPeriod(t *testing.T) {
	// Without a known tick period the preemption-ended wait cannot be
	// split: it all lands in PreemptDelay.
	r := Analyze(attribScenario(), nil, Config{TailQuantile: 0.01})
	a := r.Attribution[0]
	if a.TickQuant != 0 || a.PreemptDelay != 15*simtime.Microsecond {
		t.Fatalf("tq=%v pd=%v, want 0 and 15µs", a.TickQuant, a.PreemptDelay)
	}
	if a.Total() != 66*simtime.Microsecond {
		t.Fatalf("decomposition no longer exact: %v", a.Total())
	}
}

// TestWindowCounts checks the replayed fold's per-window event counts,
// runqueue depth and completions on the hand-built trace. That the windows
// equal the live bus's is TestDoctorWindowsMatchBus (internal/bench).
func TestWindowCounts(t *testing.T) {
	events := attribScenario()
	cfg := Config{Window: 20 * simtime.Microsecond}.withDefaults()
	windows, starved := buildWindows(events, cfg)
	if len(windows) != 5 {
		t.Fatalf("windows = %d, want 5 over [0, 90µs] at 20µs", len(windows))
	}
	if len(starved) != 0 {
		t.Fatalf("starvation on a µs-scale trace: %+v", starved)
	}
	var disp, wakes, preempts, samples uint64
	for i, w := range windows {
		if want := simtime.Time(i) * 20 * simtime.Microsecond; w.Start != want || w.End != want+20*simtime.Microsecond {
			t.Fatalf("window %d = [%v, %v), want it aligned at %v", i, w.Start, w.End, want)
		}
		disp += w.Dispatches
		wakes += w.Wakes
		preempts += w.Preempts
		samples += w.WakeSamples
	}
	if disp != 4 || wakes != 3 || preempts != 1 || samples != 3 {
		t.Fatalf("event counts: disp=%d wakes=%d preempts=%d wake samples=%d", disp, wakes, preempts, samples)
	}
	if windows[0].RunqHighWater != 1 {
		t.Fatalf("window 0 runq high-water = %d, want 1", windows[0].RunqHighWater)
	}
	// Three spans complete; throughput accounting must agree.
	var completed int
	for _, w := range windows {
		completed += w.Completed
	}
	if completed != 3 {
		t.Fatalf("completed = %d, want 3", completed)
	}
}

// TestFoldHoldsOneWindowOfSpans: the fold drops closed spans once a window
// has counted them, so after many windows it holds no more than the last
// window's, while Spans still counts every span of the run.
func TestFoldHoldsOneWindowOfSpans(t *testing.T) {
	const width = 100 * simtime.Microsecond
	f := NewFold(0, width, 0)
	fed := 0
	var last Window
	for w := 0; w < 50; w++ {
		for i := 0; i < 1+w%4; i++ {
			at := simtime.Time(w)*width + simtime.Time(i)*20*simtime.Microsecond
			f.Feed(trace.Event{At: at, Kind: trace.Wake, CPU: -1, Task: i})
			f.Feed(trace.Event{At: at + 1000, Kind: trace.Dispatch, CPU: 0, Task: i})
			f.Feed(trace.Event{At: at + 5000, Kind: trace.Block, CPU: 0, Task: i})
			fed++
		}
		held := f.st.Result().Spans
		last = f.Close(f.End())
		if len(held) != last.Stats.Completed {
			t.Fatalf("window %d: fold holds %d closed spans, the window completed %d",
				w, len(held), last.Stats.Completed)
		}
		if cap(held) > 4 {
			t.Fatalf("window %d: span buffer grew to %d, want at most one window's (4)", w, cap(held))
		}
	}
	if len(f.st.Result().Spans) != 0 {
		t.Fatalf("fold holds %d spans after its last close", len(f.st.Result().Spans))
	}
	if f.Spans() != fed {
		t.Fatalf("Spans() = %d, want all %d", f.Spans(), fed)
	}
}

func TestWorkConservationDetector(t *testing.T) {
	ev := func(at simtime.Time, k trace.Kind, cpu, task int) trace.Event {
		return trace.Event{At: at, Kind: k, CPU: cpu, Task: task}
	}
	// A task sits runnable for 200 µs before its dispatch while the only
	// core is idle: a clear violation.
	bad := []trace.Event{
		ev(0, trace.Wake, -1, 1),
		ev(200000, trace.Dispatch, 0, 1),
		ev(210000, trace.Block, 0, 1),
	}
	r := Analyze(bad, nil, Config{Cores: 1})
	f, ok := findCode(r.Findings, CodeWorkConservation)
	if !ok {
		t.Fatalf("violation not flagged; findings: %+v", r.Findings)
	}
	if f.FirstAt != 0 || f.Count != 1 || f.Value != 200000 {
		t.Fatalf("bad finding: %+v", f)
	}
	// A prompt dispatch (10 µs, below the 50 µs threshold) is the normal
	// dispatch path, not a violation.
	good := []trace.Event{
		ev(0, trace.Wake, -1, 1),
		ev(10000, trace.Dispatch, 0, 1),
		ev(20000, trace.Block, 0, 1),
	}
	r = Analyze(good, nil, Config{Cores: 1})
	if _, ok := findCode(r.Findings, CodeWorkConservation); ok {
		t.Fatalf("false positive on prompt dispatch: %+v", r.Findings)
	}
}

func TestStarvationDetector(t *testing.T) {
	ev := func(at simtime.Time, k trace.Kind, cpu, task, app int) trace.Event {
		return trace.Event{At: at, Kind: k, CPU: cpu, Task: task, App: app}
	}
	events := []trace.Event{
		ev(0, trace.Wake, -1, 1, 1),
		ev(0, trace.Dispatch, 0, 2, 0), // app 0 is served immediately
		ev(1000, trace.Block, 0, 2, 0),
		ev(2*simtime.Millisecond, trace.Dispatch, 0, 1, 1), // app 1 starved 2 ms
		ev(2*simtime.Millisecond+1000, trace.Block, 0, 1, 1),
	}
	r := Analyze(events, nil, Config{StarvationThreshold: simtime.Millisecond, Cores: 1})
	f, ok := findCode(r.Findings, CodeStarvation)
	if !ok {
		t.Fatalf("starvation not flagged; findings: %+v", r.Findings)
	}
	// The wakeup is also still pending at the 1 ms and 2 ms window closes;
	// it counts once.
	if f.App != 1 || f.Count != 1 || simtime.Duration(f.Value) != 2*simtime.Millisecond {
		t.Fatalf("bad finding: %+v", f)
	}

	// A wakeup that is never dispatched, because another task holds the
	// only core for 30 ms, starves too: no span ever closes for it.
	never := []trace.Event{
		ev(0, trace.Dispatch, 0, 2, 0),
		ev(1000, trace.Wake, -1, 1, 1),
		ev(30*simtime.Millisecond, trace.Block, 0, 2, 0),
	}
	r = Analyze(never, nil, Config{Cores: 1})
	var starved []Finding
	for _, f := range r.Findings {
		if f.Code == CodeStarvation {
			starved = append(starved, f)
		}
	}
	if len(starved) != 1 {
		t.Fatalf("starvation findings = %+v, want one", starved)
	}
	if f := starved[0]; f.App != 1 || f.Count != 1 || f.FirstAt != 1000 ||
		simtime.Duration(f.Value) < 30*simtime.Millisecond-1000 {
		t.Fatalf("bad finding: %+v", f)
	}
}

func TestImbalanceDetector(t *testing.T) {
	ev := func(at simtime.Time, k trace.Kind, cpu, task int) trace.Event {
		return trace.Event{At: at, Kind: k, CPU: cpu, Task: task}
	}
	// cpu 0 runs back-to-back for 2 ms; cpu 1 never works.
	lopsided := []trace.Event{
		ev(0, trace.Dispatch, 0, 1),
		ev(simtime.Millisecond, trace.Block, 0, 1),
		ev(simtime.Millisecond, trace.Dispatch, 0, 2),
		ev(2*simtime.Millisecond, trace.Block, 0, 2),
	}
	r := Analyze(lopsided, nil, Config{Cores: 2})
	f, ok := findCode(r.Findings, CodeImbalance)
	if !ok {
		t.Fatalf("imbalance not flagged; findings: %+v", r.Findings)
	}
	if f.Value < 0.9 {
		t.Fatalf("spread = %v, want ~1.0", f.Value)
	}
	// Balanced load: both cores busy throughout.
	balanced := []trace.Event{
		ev(0, trace.Dispatch, 0, 1),
		ev(0, trace.Dispatch, 1, 2),
		ev(2*simtime.Millisecond, trace.Block, 0, 1),
		ev(2*simtime.Millisecond, trace.Block, 1, 2),
	}
	r = Analyze(balanced, nil, Config{Cores: 2})
	if _, ok := findCode(r.Findings, CodeImbalance); ok {
		t.Fatalf("false positive on balanced load: %+v", r.Findings)
	}
}

func TestTickBoundDetector(t *testing.T) {
	// The Fig. 5 Linux shape: a fast mode plus a heavy cluster at the
	// CONFIG_HZ=250 tick period (4 ms).
	linux := stats.NewHist()
	for i := 0; i < 1000; i++ {
		linux.Record(50 * simtime.Microsecond)
	}
	for i := 0; i < 400; i++ {
		linux.Record(4 * simtime.Millisecond)
	}
	f, ok := TickBound(linux)
	if !ok {
		t.Fatal("CONFIG_HZ cluster not flagged")
	}
	if f.Value < 200 || f.Value > 300 {
		t.Fatalf("implied Hz = %v, want ~250", f.Value)
	}
	// A µs-scale scheduler: everything far below 1 ms.
	sky := stats.NewHist()
	for i := 0; i < 1000; i++ {
		sky.Record(simtime.Duration(10+i%50) * simtime.Microsecond)
	}
	if f, ok := TickBound(sky); ok {
		t.Fatalf("false positive on µs-scale distribution: %+v", f)
	}
	// Slow but not tick-like: latencies at 100 ms imply a 10 Hz "tick",
	// outside any plausible CONFIG_HZ.
	slow := stats.NewHist()
	for i := 0; i < 1000; i++ {
		slow.Record(100 * simtime.Millisecond)
	}
	if f, ok := TickBound(slow); ok {
		t.Fatalf("false positive on non-tick slowness: %+v", f)
	}
}

func TestReportDeterministicJSON(t *testing.T) {
	events := attribScenario()
	cfg := Config{TickPeriod: 10 * simtime.Microsecond}
	var a, b bytes.Buffer
	if err := Analyze(events, nil, cfg).WriteJSON(&a); err != nil {
		t.Fatal(err)
	}
	if err := Analyze(events, nil, cfg).WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("two analyses of the same trace produced different JSON")
	}
	if !strings.Contains(a.String(), "\"version\": 1") {
		t.Fatalf("report missing version: %s", a.String())
	}
}

func findCode(fs []Finding, code string) (Finding, bool) {
	for _, f := range fs {
		if f.Code == code {
			return f, true
		}
	}
	return Finding{}, false
}

// leaseScenario builds a lease-event trace for borrower app 7: a long
// core-less gap between two leases (starvation) and a burst of
// near-instantly reclaimed leases (thrash). ev.Arg on LeaseReturn carries
// the reclaim latency; 0 = voluntary (irrelevant to these detectors).
func leaseScenario() []trace.Event {
	lev := func(at simtime.Time, k trace.Kind, core int) trace.Event {
		return trace.Event{At: at, Kind: k, CPU: core, Task: -1, App: 7}
	}
	events := []trace.Event{
		lev(0, trace.LeaseGrant, 2),
		lev(100_000, trace.LeaseReturn, 2), // 100 µs hold, then...
		// ...a 2 ms core-less gap (>= the 1 ms default threshold).
		lev(2_100_000, trace.LeaseGrant, 2),
	}
	// Thrash burst: 9 leases each held 5 µs (< the 30 µs default hold).
	at := simtime.Time(2_200_000)
	for i := 0; i < 9; i++ {
		events = append(events,
			lev(at, trace.LeaseReturn, 2),
			lev(at+1_000, trace.LeaseGrant, 2),
			lev(at+6_000, trace.LeaseReturn, 2),
		)
		at += 10_000
	}
	return events
}

func TestLeaseDetectors(t *testing.T) {
	r := Analyze(leaseScenario(), nil, Config{})
	var starv, thrash *Finding
	for i := range r.Findings {
		switch r.Findings[i].Code {
		case CodeLeaseStarvation:
			starv = &r.Findings[i]
		case CodeLeaseThrash:
			thrash = &r.Findings[i]
		}
	}
	if starv == nil {
		t.Fatalf("no %s finding: %+v", CodeLeaseStarvation, r.Findings)
	}
	// The long gap opens when the first lease returns, at 100 µs.
	if starv.App != 7 || starv.Count != 1 || starv.FirstAt != 100*simtime.Microsecond {
		t.Fatalf("starvation finding: %+v", starv)
	}
	if got := simtime.Duration(starv.Value); got != 2*simtime.Millisecond {
		t.Fatalf("starvation worst gap = %v, want 2ms", got)
	}
	if thrash == nil {
		t.Fatalf("no %s finding: %+v", CodeLeaseThrash, r.Findings)
	}
	// The first short hold is granted at 2.201 ms.
	if thrash.App != 7 || thrash.Count < 8 || thrash.FirstAt != 2_201_000 {
		t.Fatalf("thrash finding: %+v", thrash)
	}
}

func TestLeaseDetectorsSilentWithoutLeases(t *testing.T) {
	r := Analyze(attribScenario(), nil, Config{})
	for _, f := range r.Findings {
		if f.Code == CodeLeaseStarvation || f.Code == CodeLeaseThrash {
			t.Fatalf("lease finding on a lease-free trace: %+v", f)
		}
	}
}
