// Package obs is the simulation's observability layer: a zero-alloc metrics
// registry, a span tracer that stitches the scheduling event stream into
// per-request lifecycle spans, a Perfetto/Chrome trace_event exporter, and a
// virtual-clock core-occupancy profiler. Everything hangs off the existing
// deterministic event stream (trace.Ring) and read-only engine state, so
// enabling it never perturbs scheduling behaviour — golden trace hashes are
// byte-identical with and without it.
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"skyloft/internal/stats"
)

// Counter is a monotonically increasing count. Handles are keyed at
// registration time: the hot path is a single field increment with no map
// lookup and no allocation.
type Counter struct {
	v uint64
}

// Add increments the counter by delta.
func (c *Counter) Add(delta uint64) { c.v += delta }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v++ }

// Value reports the current count.
func (c *Counter) Value() uint64 { return c.v }

// Gauge is an instantaneous level that also tracks its high-water mark
// (runqueue depth is the canonical use: the level matters less than the
// worst backlog ever reached).
type Gauge struct {
	v  int64
	hw int64
}

// Set replaces the level and updates the high-water mark.
func (g *Gauge) Set(v int64) {
	g.v = v
	if v > g.hw {
		g.hw = v
	}
}

// Add shifts the level by delta and updates the high-water mark.
func (g *Gauge) Add(delta int64) { g.Set(g.v + delta) }

// Value reports the current level.
func (g *Gauge) Value() int64 { return g.v }

// HighWater reports the largest level ever Set.
func (g *Gauge) HighWater() int64 { return g.hw }

// metricKind discriminates the registry's entry types.
type metricKind uint8

const (
	kindCounter metricKind = iota
	kindGauge
	kindHist
	kindCounterFunc
	kindGaugeFunc
)

type metricEntry struct {
	name    string
	kind    metricKind
	counter *Counter
	gauge   *Gauge
	hist    *stats.Hist
	cfn     func() uint64
	gfn     func() int64
}

// Registry holds named metrics. Registration (engine construction time)
// allocates; recording through the returned handles does not, and snapshots
// are taken only on demand. The zero value is ready to use.
type Registry struct {
	entries []metricEntry
	byName  map[string]int
}

func (r *Registry) register(e metricEntry) {
	if r.byName == nil {
		r.byName = make(map[string]int)
	}
	if _, dup := r.byName[e.name]; dup {
		panic(fmt.Sprintf("obs: duplicate metric %q", e.name))
	}
	r.byName[e.name] = len(r.entries)
	r.entries = append(r.entries, e)
}

// Counter registers and returns a counter handle.
func (r *Registry) Counter(name string) *Counter {
	c := &Counter{}
	r.register(metricEntry{name: name, kind: kindCounter, counter: c})
	return c
}

// Gauge registers and returns a gauge handle.
func (r *Registry) Gauge(name string) *Gauge {
	g := &Gauge{}
	r.register(metricEntry{name: name, kind: kindGauge, gauge: g})
	return g
}

// Histogram registers and returns a duration histogram.
func (r *Registry) Histogram(name string) *stats.Hist {
	h := stats.NewHist()
	r.register(metricEntry{name: name, kind: kindHist, hist: h})
	return h
}

// CounterFunc registers a counter whose value is read from fn at snapshot
// time — the bridge for subsystems that already maintain their own counts
// (IPIs sent, timer fires, SENDUIPIs) with zero extra hot-path work.
func (r *Registry) CounterFunc(name string, fn func() uint64) {
	r.register(metricEntry{name: name, kind: kindCounterFunc, cfn: fn})
}

// GaugeFunc registers a gauge read from fn at snapshot time.
func (r *Registry) GaugeFunc(name string, fn func() int64) {
	r.register(metricEntry{name: name, kind: kindGaugeFunc, gfn: fn})
}

// AttachHistogram registers an externally owned histogram (e.g. an engine's
// wakeup-latency histogram) under name.
func (r *Registry) AttachHistogram(name string, h *stats.Hist) {
	r.register(metricEntry{name: name, kind: kindHist, hist: h})
}

// Sample is one metric's snapshot value.
type Sample struct {
	Name  string  `json:"name"`
	Kind  string  `json:"kind"` // "counter", "gauge", "histogram"
	Value float64 `json:"value"`
	// Gauge extras.
	HighWater float64 `json:"high_water,omitempty"`
	// Histogram extras (ns).
	Count uint64  `json:"count,omitempty"`
	Mean  float64 `json:"mean,omitempty"`
	P50   float64 `json:"p50,omitempty"`
	P99   float64 `json:"p99,omitempty"`
	P999  float64 `json:"p999,omitempty"`
	Max   float64 `json:"max,omitempty"`
}

// Snapshot reads every metric once and returns the samples sorted by name.
func (r *Registry) Snapshot() []Sample {
	out := make([]Sample, 0, len(r.entries))
	for _, e := range r.entries {
		s := Sample{Name: e.name}
		switch e.kind {
		case kindCounter:
			s.Kind = "counter"
			s.Value = float64(e.counter.Value())
		case kindCounterFunc:
			s.Kind = "counter"
			s.Value = float64(e.cfn())
		case kindGauge:
			s.Kind = "gauge"
			s.Value = float64(e.gauge.Value())
			s.HighWater = float64(e.gauge.HighWater())
		case kindGaugeFunc:
			s.Kind = "gauge"
			s.Value = float64(e.gfn())
		case kindHist:
			s.Kind = "histogram"
			s.Count = e.hist.Count()
			s.Value = float64(s.Count)
			s.Mean = float64(e.hist.Mean())
			s.P50 = float64(e.hist.P50())
			s.P99 = float64(e.hist.P99())
			s.P999 = float64(e.hist.P999())
			s.Max = float64(e.hist.Max())
		}
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// WriteJSON writes the snapshot as a JSON array (one object per metric).
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Snapshot())
}
