package doctor

import (
	"fmt"
	"sort"

	"skyloft/internal/det"
	"skyloft/internal/simtime"
	"skyloft/internal/stats"
	"skyloft/internal/trace"
)

// Finding codes.
const (
	// CodeWorkConservation: a core sat idle beyond the threshold while the
	// runnable queue was non-empty.
	CodeWorkConservation = "work-conservation"
	// CodeStarvation: an application's task stayed runnable-but-undispatched
	// beyond the starvation threshold. Decided by Fold alone.
	CodeStarvation = "starvation"
	// CodeImbalance: per-core busy shares spread wider than the threshold.
	CodeImbalance = "imbalance"
	// CodeTickBound: the wakeup-latency distribution clusters at a
	// millisecond-scale period — the Fig. 5 Linux CONFIG_HZ signature.
	CodeTickBound = "tick-bound"
	// CodeFaultCorrelated: the run contains injected faults (chaos mode)
	// and the worst wakeup-latency window coincides with them — the tail is
	// chaos-made, not a scheduler defect. Never fires on clean runs.
	CodeFaultCorrelated = "fault-correlated"
	// CodeLeaseStarvation: a borrower application that participates in the
	// core-lease protocol went without any lent core beyond the threshold —
	// the allocator is reclaiming faster than it re-grants, so the tenant
	// starves. Only fires when the trace carries lease events.
	CodeLeaseStarvation = "lease-starvation"
	// CodeLeaseThrash: leases are granted and reclaimed so quickly that the
	// borrower pays switch costs without getting useful core time — a
	// grant/reclaim control loop oscillating.
	CodeLeaseThrash = "lease-thrash"
)

// Finding is one structured pathology report: what, where, since when, how
// often, and the evidence that convinced the detector.
type Finding struct {
	Code string `json:"code"`
	// App scopes the finding to one application; -1 = system-wide.
	App int `json:"app"`
	// FirstAt is the virtual time of the first occurrence.
	FirstAt simtime.Time `json:"first_at_ns"`
	// Count is the number of occurrences observed.
	Count uint64 `json:"count"`
	// Value is the detector-specific magnitude (worst idle-waste ns,
	// worst starvation ns, busy-share spread, implied tick Hz).
	Value float64 `json:"value"`
	// Evidence is a human-readable justification with the raw numbers.
	Evidence string `json:"evidence"`
}

// detect runs every pathology detector and returns the findings in a
// deterministic order (code, then app).
func detect(events []trace.Event, wake *stats.Hist, windows []WindowStats, starved []Finding, cfg Config) []Finding {
	var out []Finding
	if f, ok := detectWorkConservation(events, cfg); ok {
		out = append(out, f)
	}
	out = append(out, starved...)
	if f, ok := detectImbalance(events, cfg); ok {
		out = append(out, f)
	}
	if f, ok := TickBound(wake); ok {
		out = append(out, f)
	}
	if f, ok := detectFaultCorrelation(events, windows); ok {
		out = append(out, f)
	}
	holds := buildLeaseHolds(events)
	out = append(out, detectLeaseStarvation(holds, cfg)...)
	out = append(out, detectLeaseThrash(holds, cfg)...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Code != out[j].Code {
			return out[i].Code < out[j].Code
		}
		return out[i].App < out[j].App
	})
	return out
}

// detectWorkConservation replays the event stream tracking the
// reconstructed runqueue depth and per-core occupancy, and accumulates
// maximal intervals during which work was queued while at least one core
// sat idle. Intervals shorter than the threshold are dispatch paths in
// flight, not violations.
func detectWorkConservation(events []trace.Event, cfg Config) (Finding, bool) {
	if len(events) == 0 || cfg.Cores == 0 {
		return Finding{}, false
	}
	busy := make([]bool, cfg.Cores)
	idleCores := cfg.Cores
	depth := 0

	var (
		violStart    simtime.Time
		inViol       bool
		count        uint64
		firstAt      simtime.Time
		worst, total simtime.Duration
	)
	flush := func(now simtime.Time) {
		if !inViol {
			return
		}
		inViol = false
		d := simtime.Duration(now - violStart)
		if d < cfg.IdleWasteThreshold {
			return
		}
		if count == 0 {
			firstAt = violStart
		}
		count++
		total += d
		if d > worst {
			worst = d
		}
	}
	for _, ev := range events {
		// State is piecewise constant between events: apply the event,
		// then open or close a violation interval on the new state.
		switch ev.Kind {
		case trace.Dispatch:
			if depth > 0 {
				depth--
			}
			if ev.CPU >= 0 && ev.CPU < cfg.Cores && !busy[ev.CPU] {
				busy[ev.CPU] = true
				idleCores--
			}
		case trace.Wake:
			depth++
		case trace.Preempt, trace.Yield:
			depth++
			fallthrough
		case trace.Block, trace.Sleep, trace.Exit:
			if ev.CPU >= 0 && ev.CPU < cfg.Cores && busy[ev.CPU] {
				busy[ev.CPU] = false
				idleCores++
			}
		}
		violating := depth > 0 && idleCores > 0
		switch {
		case violating && !inViol:
			inViol = true
			violStart = ev.At
		case !violating && inViol:
			flush(ev.At)
		}
	}
	flush(events[len(events)-1].At)
	if count == 0 {
		return Finding{}, false
	}
	return Finding{
		Code:    CodeWorkConservation,
		App:     -1,
		FirstAt: firstAt,
		Count:   count,
		Value:   float64(worst),
		Evidence: fmt.Sprintf("%d intervals with idle cores while the runqueue was non-empty (>= %v each); worst %v, total %v",
			count, cfg.IdleWasteThreshold, worst, total),
	}, true
}

// detectImbalance accumulates per-core busy time from the event stream and
// flags a busy-share spread beyond the threshold — load stuck on some cores
// while others coast (a PickCPU or SchedBalance defect).
func detectImbalance(events []trace.Event, cfg Config) (Finding, bool) {
	if len(events) == 0 || cfg.Cores < 2 {
		return Finding{}, false
	}
	span := simtime.Duration(events[len(events)-1].At - events[0].At)
	if span <= 0 {
		return Finding{}, false
	}
	busySince := make([]simtime.Time, cfg.Cores)
	running := make([]bool, cfg.Cores)
	busyTime := make([]simtime.Duration, cfg.Cores)
	for _, ev := range events {
		if ev.CPU < 0 || ev.CPU >= cfg.Cores {
			continue
		}
		switch ev.Kind {
		case trace.Dispatch:
			if !running[ev.CPU] {
				running[ev.CPU] = true
				busySince[ev.CPU] = ev.At
			}
		case trace.Preempt, trace.Yield, trace.Block, trace.Sleep, trace.Exit:
			if running[ev.CPU] {
				running[ev.CPU] = false
				busyTime[ev.CPU] += simtime.Duration(ev.At - busySince[ev.CPU])
			}
		}
	}
	end := events[len(events)-1].At
	for i := range running {
		if running[i] {
			busyTime[i] += simtime.Duration(end - busySince[i])
		}
	}
	minShare, maxShare := 1.0, 0.0
	argMin, argMax := 0, 0
	var totalBusy simtime.Duration
	for i, b := range busyTime {
		share := float64(b) / float64(span)
		totalBusy += b
		if share < minShare {
			minShare, argMin = share, i
		}
		if share > maxShare {
			maxShare, argMax = share, i
		}
	}
	spread := maxShare - minShare
	// Require non-trivial load: an almost-idle machine is trivially
	// "imbalanced" by its single busy core.
	meanShare := float64(totalBusy) / float64(span) / float64(cfg.Cores)
	if spread < cfg.ImbalanceThreshold || meanShare < 0.1 {
		return Finding{}, false
	}
	return Finding{
		Code:    CodeImbalance,
		App:     -1,
		FirstAt: events[0].At,
		Count:   1,
		Value:   spread,
		Evidence: fmt.Sprintf("busy-share spread %.2f: cpu %d at %.0f%% vs cpu %d at %.0f%% (mean %.0f%%)",
			spread, argMax, 100*maxShare, argMin, 100*minShare, 100*meanShare),
	}, true
}

// detectFaultCorrelation attributes tail windows to chaos: when the run
// contains injected-fault events, it locates the window with the worst
// wakeup p99 and reports whether faults were active in it (or the window
// immediately before — fault impact lags onset by queueing). Runs without
// Inject events produce no finding, so clean-run reports are unchanged by
// the detector's existence.
func detectFaultCorrelation(events []trace.Event, windows []WindowStats) (Finding, bool) {
	var total uint64
	var firstAt simtime.Time
	for _, ev := range events {
		if ev.Kind == trace.Inject {
			if total == 0 {
				firstAt = ev.At
			}
			total++
		}
	}
	if total == 0 || len(windows) == 0 {
		return Finding{}, false
	}
	worst := -1
	for i := range windows {
		if windows[i].WakeSamples == 0 {
			continue
		}
		if worst < 0 || windows[i].WakeP99 > windows[worst].WakeP99 {
			worst = i
		}
	}
	if worst < 0 {
		return Finding{}, false
	}
	near := windows[worst].Injects
	if worst > 0 {
		near += windows[worst-1].Injects
	}
	if near == 0 {
		return Finding{}, false
	}
	ws := windows[worst]
	return Finding{
		Code:    CodeFaultCorrelated,
		App:     -1,
		FirstAt: firstAt,
		Count:   total,
		Value:   float64(near),
		Evidence: fmt.Sprintf("worst wake-p99 window [%v, %v) (p99 %v) had %d injected faults in or just before it; %d injected over the whole run",
			ws.Start, ws.End, ws.WakeP99, near, total),
	}, true
}

// TickBound inspects a wakeup-latency distribution for the Fig. 5 Linux
// signature: latencies clustering at a millisecond-scale period, the
// CONFIG_HZ tick bounding how fast the kernel can preempt. It is exported
// standalone so the benchmark report can interrogate baseline histograms
// that have no event stream behind them.
//
// Tick-bounding is a tail phenomenon: under oversubscription most wakeups
// still dispatch fast, but the unlucky ones wait for the next kernel tick.
// The detector therefore triggers when (1) the p99 wakeup latency sits at
// >= 1 ms — microsecond-class schedulers like sky-cfs never get there —
// with a non-trivial slow mass (>= 2% of wakeups), and (2) those slow
// wakeups cluster around one dominant mode whose implied frequency lands
// in the plausible CONFIG_HZ range (50..1200 Hz).
func TickBound(wake *stats.Hist) (Finding, bool) {
	total := wake.Count()
	if total == 0 {
		return Finding{}, false
	}
	const msFloor = simtime.Millisecond
	if wake.P99() < msFloor {
		return Finding{}, false
	}
	var above uint64
	var modeCount uint64
	var modeAt simtime.Duration
	wake.Buckets(func(lower, upper simtime.Duration, count uint64) {
		if lower < msFloor {
			return
		}
		above += count
		if count > modeCount {
			modeCount, modeAt = count, lower
		}
	})
	if above*50 < total || modeAt == 0 {
		return Finding{}, false
	}
	impliedHz := float64(simtime.Second) / float64(modeAt)
	if impliedHz < 50 || impliedHz > 1200 {
		return Finding{}, false
	}
	// Cluster mass: slow wakeups within [mode/2, 2*mode] — one tick period
	// give or take the histogram's log-linear resolution and harmonics.
	var cluster uint64
	wake.Buckets(func(lower, upper simtime.Duration, count uint64) {
		if lower >= modeAt/2 && lower <= 2*modeAt {
			cluster += count
		}
	})
	if cluster*2 < above {
		return Finding{}, false
	}
	return Finding{
		Code:    CodeTickBound,
		App:     -1,
		FirstAt: 0,
		Count:   above,
		Value:   impliedHz,
		Evidence: fmt.Sprintf("%d of %d wakeups >= 1ms, clustered at ~%v (implied tick ~%.0f Hz): %d of %d slow wakeups within [%v, %v]",
			above, total, modeAt, impliedHz, cluster, above, modeAt/2, 2*modeAt),
	}, true
}

// leaseHolds reconstructs one borrower's lease activity from the trace's
// lease events: its core-less gaps and its completed holds. Runs without
// lease events yield an empty map, so clean (non-lease) reports are
// unchanged by the lease detectors.
type leaseHolds struct {
	held      int          // cores currently held
	idleSince simtime.Time // start of the current core-less gap
	gaps      []interval
	holds     []interval
	grantAt   map[int]simtime.Time // core -> open grant time
}

// interval is one gap or hold: when it began and how long it lasted.
type interval struct {
	at simtime.Time
	d  simtime.Duration
}

func buildLeaseHolds(events []trace.Event) map[int]*leaseHolds {
	byApp := map[int]*leaseHolds{}
	get := func(app int, at simtime.Time) *leaseHolds {
		h := byApp[app]
		if h == nil {
			h = &leaseHolds{idleSince: at, grantAt: map[int]simtime.Time{}}
			byApp[app] = h
		}
		return h
	}
	for _, ev := range events {
		switch ev.Kind {
		case trace.LeaseGrant:
			h := get(ev.App, ev.At)
			if h.held == 0 {
				h.gaps = append(h.gaps, interval{h.idleSince, ev.At - h.idleSince})
			}
			h.held++
			h.grantAt[ev.CPU] = ev.At
		case trace.LeaseReturn:
			h := get(ev.App, ev.At)
			if at, ok := h.grantAt[ev.CPU]; ok {
				delete(h.grantAt, ev.CPU)
				h.holds = append(h.holds, interval{at, ev.At - at})
			}
			if h.held > 0 {
				h.held--
			}
			if h.held == 0 {
				h.idleSince = ev.At
			}
		case trace.LeaseReclaim, trace.LeaseRevoke:
			get(ev.App, ev.At)
		}
	}
	// Close the trailing gap against the run's last event, so a borrower
	// reclaimed early and never re-granted shows its starvation.
	if len(events) > 0 {
		end := events[len(events)-1].At
		for _, h := range byApp {
			if h.held == 0 && end > h.idleSince {
				h.gaps = append(h.gaps, interval{h.idleSince, end - h.idleSince})
			}
		}
	}
	return byApp
}

// detectLeaseStarvation flags borrowers that went without any lent core
// beyond the threshold between (or after) their leases. FirstAt is the
// start of the first such gap.
func detectLeaseStarvation(byApp map[int]*leaseHolds, cfg Config) []Finding {
	var out []Finding
	for _, app := range det.SortedKeys(byApp) {
		var count uint64
		var firstAt simtime.Time
		var worst simtime.Duration
		for _, g := range byApp[app].gaps {
			if g.d < cfg.LeaseStarvationThreshold {
				continue
			}
			if count == 0 {
				firstAt = g.at
			}
			count++
			worst = max(worst, g.d)
		}
		if count == 0 {
			continue
		}
		out = append(out, Finding{
			Code:    CodeLeaseStarvation,
			App:     app,
			FirstAt: firstAt,
			Count:   count,
			Value:   float64(worst),
			Evidence: fmt.Sprintf("%d core-less gaps >= %v between leases; worst %v",
				count, cfg.LeaseStarvationThreshold, worst),
		})
	}
	return out
}

// detectLeaseThrash flags borrowers whose leases keep getting reclaimed
// almost immediately: at least LeaseThrashCount holds shorter than
// LeaseThrashHold means the grant/reclaim loop is oscillating and the
// borrower pays switch costs for no useful core time. FirstAt is the
// earliest grant of a short hold.
func detectLeaseThrash(byApp map[int]*leaseHolds, cfg Config) []Finding {
	var out []Finding
	for _, app := range det.SortedKeys(byApp) {
		holds := byApp[app].holds
		var short uint64
		var firstAt simtime.Time
		for _, h := range holds {
			if h.d >= cfg.LeaseThrashHold {
				continue
			}
			if short == 0 || h.at < firstAt {
				firstAt = h.at
			}
			short++
		}
		if short < cfg.LeaseThrashCount {
			continue
		}
		out = append(out, Finding{
			Code:    CodeLeaseThrash,
			App:     app,
			FirstAt: firstAt,
			Count:   short,
			Value:   float64(short) / float64(len(holds)),
			Evidence: fmt.Sprintf("%d of %d leases held < %v before reclaim",
				short, len(holds), cfg.LeaseThrashHold),
		})
	}
	return out
}
