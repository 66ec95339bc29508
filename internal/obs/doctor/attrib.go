package doctor

import (
	"skyloft/internal/det"
	"skyloft/internal/obs"
	"skyloft/internal/simtime"
	"skyloft/internal/stats"
	"skyloft/internal/trace"
)

// AppAttribution decomposes one application's tail wakeup latencies — every
// span at or above the configured quantile — into the four causes of
// obs.WaitSplit: queue, tick quantisation, preemption delay and delivery.
// The four components sum exactly to each span's wakeup latency, so the
// table answers "why is p99 what it is" with no residual.
type AppAttribution struct {
	App       int              `json:"app"`
	TailSpans int              `json:"tail_spans"`
	Threshold simtime.Duration `json:"threshold_ns"` // latency cutoff used

	Queue        simtime.Duration `json:"queue_ns"`
	TickQuant    simtime.Duration `json:"tick_quant_ns"`
	PreemptDelay simtime.Duration `json:"preempt_delay_ns"`
	Delivery     simtime.Duration `json:"delivery_ns"`

	MaxLatency simtime.Duration `json:"max_latency_ns"`
}

// Total reports the attributed latency sum (= sum of tail wakeup latencies).
func (a AppAttribution) Total() simtime.Duration {
	return a.Queue + a.TickQuant + a.PreemptDelay + a.Delivery
}

// spanKey identifies a span by its opening dispatch, which is unique in a
// valid trace (one dispatch per core per instant, one first-dispatch per
// span).
type spanKey struct {
	task int
	at   simtime.Time
}

// attributeTails splits every tail span's wakeup latency with the shared
// obs.WaitClassifier, replaying the event stream's per-core occupancy: what
// was the dispatching core doing when the task woke, and which event freed
// it?
func attributeTails(events []trace.Event, spans *obs.SpanSet, wake *stats.Hist, cfg Config) []AppAttribution {
	if wake.Count() == 0 || len(events) == 0 {
		return nil
	}
	// QuantileFloor (the quantile bucket's lower edge) rather than Quantile
	// (its upper edge): the tail set must include the quantile bucket, or a
	// tight distribution would have an empty "tail" at p99.
	threshold := wake.QuantileFloor(cfg.TailQuantile)

	// Index the tail spans by their first dispatch.
	tails := map[spanKey]*obs.Span{}
	for i := range spans.Spans {
		s := &spans.Spans[i]
		if s.WakeKnown && s.WakeLatency() >= threshold {
			tails[spanKey{s.Task, s.FirstDispatch}] = s
		}
	}
	if len(tails) == 0 {
		return nil
	}

	byApp := map[int]*AppAttribution{}
	var wc obs.WaitClassifier
	for _, ev := range events {
		if ev.Kind == trace.Dispatch {
			if s := tails[spanKey{ev.Task, ev.At}]; s != nil {
				a := byApp[s.App]
				if a == nil {
					a = &AppAttribution{App: s.App, Threshold: threshold}
					byApp[s.App] = a
				}
				a.TailSpans++
				a.MaxLatency = max(a.MaxLatency, s.WakeLatency())
				w := wc.Split(ev.CPU, s.Wake, ev.At, cfg.TickPeriod)
				a.Queue += w.Queue
				a.TickQuant += w.TickQuant
				a.PreemptDelay += w.PreemptDelay
				a.Delivery += w.Delivery
			}
		}
		wc.Observe(ev)
	}

	out := make([]AppAttribution, 0, len(byApp))
	for _, app := range det.SortedKeys(byApp) {
		out = append(out, *byApp[app])
	}
	return out
}
