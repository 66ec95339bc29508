package stats

import (
	"fmt"
	"sort"

	"skyloft/internal/simtime"
)

// Slowdown records per-request slowdown: (queueing + service) / service.
// The paper's Fig. 8b reports the 99.9th-percentile slowdown because the
// RocksDB bimodal workload has service times spanning three orders of
// magnitude, which makes absolute tail latency a poor SLO.
type Slowdown struct {
	// Slowdown is dimensionless; reuse the ns histogram by recording
	// slowdown scaled by slowdownScale.
	h *Hist
}

const slowdownScale = 1000 // 1.0x slowdown stored as 1000

// NewSlowdown returns an empty slowdown recorder.
func NewSlowdown() *Slowdown { return &Slowdown{h: NewHist()} }

// Record adds one request's total sojourn time and pure service time.
func (s *Slowdown) Record(sojourn, service simtime.Duration) {
	if service <= 0 {
		service = 1
	}
	if sojourn < service {
		sojourn = service
	}
	ratio := float64(sojourn) / float64(service)
	s.h.Record(simtime.Duration(ratio * slowdownScale))
}

// Count reports the number of recorded requests.
func (s *Slowdown) Count() uint64 { return s.h.Count() }

// Quantile reports the q-quantile slowdown as a dimensionless factor.
func (s *Slowdown) Quantile(q float64) float64 {
	return float64(s.h.Quantile(q)) / slowdownScale
}

// P999 reports the 99.9th percentile slowdown factor.
func (s *Slowdown) P999() float64 { return s.Quantile(0.999) }

// Mean reports the mean slowdown factor.
func (s *Slowdown) Mean() float64 { return float64(s.h.Mean()) / slowdownScale }

// Reset clears all observations.
func (s *Slowdown) Reset() { s.h.Reset() }

// Counter is a monotonically increasing event count with a windowed rate.
type Counter struct {
	n     uint64
	start simtime.Time
}

// NewCounter returns a counter whose rate window starts at start.
func NewCounter(start simtime.Time) *Counter { return &Counter{start: start} }

// Add increments the counter by delta.
func (c *Counter) Add(delta uint64) { c.n += delta }

// Count reports the current value.
func (c *Counter) Count() uint64 { return c.n }

// Rate reports events per virtual second between the window start and now.
func (c *Counter) Rate(now simtime.Time) float64 {
	elapsed := now - c.start
	if elapsed <= 0 {
		return 0
	}
	return float64(c.n) * float64(simtime.Second) / float64(elapsed)
}

// Row is one line of a regenerated figure or table: an x value (load,
// thread count, time slice...) and named y values.
type Row struct {
	X      float64
	Values map[string]float64
}

// Table accumulates rows for one experiment series and renders them.
type Table struct {
	Title   string
	XLabel  string
	Columns []string
	Rows    []Row
}

// NewTable returns an empty table with the given metadata.
func NewTable(title, xLabel string, columns ...string) *Table {
	return &Table{Title: title, XLabel: xLabel, Columns: columns}
}

// Add appends one row. Values are matched to Columns by name; missing
// columns render as NaN.
func (t *Table) Add(x float64, values map[string]float64) {
	t.Rows = append(t.Rows, Row{X: x, Values: values})
}

// Render returns the table in an aligned text format with one row per x.
func (t *Table) Render() string {
	out := fmt.Sprintf("# %s\n%-14s", t.Title, t.XLabel)
	for _, c := range t.Columns {
		out += fmt.Sprintf(" %16s", c)
	}
	out += "\n"
	rows := append([]Row(nil), t.Rows...)
	sort.SliceStable(rows, func(i, j int) bool { return rows[i].X < rows[j].X })
	for _, r := range rows {
		out += fmt.Sprintf("%-14.6g", r.X)
		for _, c := range t.Columns {
			v, ok := r.Values[c]
			if !ok {
				out += fmt.Sprintf(" %16s", "-")
				continue
			}
			out += fmt.Sprintf(" %16.6g", v)
		}
		out += "\n"
	}
	return out
}
