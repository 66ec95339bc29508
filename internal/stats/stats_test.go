package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"skyloft/internal/simtime"
)

func TestHistExactSmallValues(t *testing.T) {
	h := NewHist()
	for i := simtime.Duration(0); i < 64; i++ {
		h.Record(i)
	}
	if h.Count() != 64 {
		t.Fatalf("count = %d", h.Count())
	}
	if h.Min() != 0 || h.Max() != 63 {
		t.Fatalf("min/max = %v/%v", h.Min(), h.Max())
	}
	// Values below subBuckets are stored exactly.
	if q := h.Quantile(0.5); q < 31 || q > 33 {
		t.Fatalf("median = %v, want ~32", q)
	}
}

func TestHistQuantileAccuracy(t *testing.T) {
	h := NewHist()
	r := rand.New(rand.NewSource(1))
	var raw []float64
	for i := 0; i < 100000; i++ {
		v := simtime.Duration(r.ExpFloat64() * 50000)
		raw = append(raw, float64(v))
		h.Record(v)
	}
	sort.Float64s(raw)
	for _, q := range []float64{0.5, 0.9, 0.99, 0.999} {
		exact := raw[int(q*float64(len(raw)))-1]
		got := float64(h.Quantile(q))
		if math.Abs(got-exact)/exact > 0.05 {
			t.Errorf("q=%v: hist=%v exact=%v (err %.2f%%)", q, got, exact,
				100*math.Abs(got-exact)/exact)
		}
	}
}

func TestHistMergeEqualsCombined(t *testing.T) {
	a, b, both := NewHist(), NewHist(), NewHist()
	r := rand.New(rand.NewSource(2))
	for i := 0; i < 5000; i++ {
		v := simtime.Duration(r.Intn(1_000_000))
		if i%2 == 0 {
			a.Record(v)
		} else {
			b.Record(v)
		}
		both.Record(v)
	}
	a.Merge(b)
	if a.Count() != both.Count() {
		t.Fatalf("merged count %d != %d", a.Count(), both.Count())
	}
	for _, q := range []float64{0.1, 0.5, 0.9, 0.99} {
		if a.Quantile(q) != both.Quantile(q) {
			t.Errorf("q=%v merged %v != combined %v", q, a.Quantile(q), both.Quantile(q))
		}
	}
	if a.Min() != both.Min() || a.Max() != both.Max() {
		t.Error("merged min/max mismatch")
	}
}

// QuantileFloor must never exceed Quantile, must respect the observed min,
// and selecting v >= QuantileFloor(q) must keep at least one sample — even
// for a single-valued distribution, where the upper-edge Quantile estimate
// sits above every actual sample.
func TestHistQuantileFloor(t *testing.T) {
	h := NewHist()
	for i := 0; i < 100; i++ {
		h.Record(1000)
	}
	for _, q := range []float64{0.01, 0.5, 0.99, 0.999} {
		f := h.QuantileFloor(q)
		if f > 1000 {
			t.Fatalf("QuantileFloor(%v) = %v excludes every sample", q, f)
		}
		if f > h.Quantile(q) {
			t.Fatalf("QuantileFloor(%v) = %v > Quantile = %v", q, f, h.Quantile(q))
		}
		if f < h.Min() {
			t.Fatalf("QuantileFloor(%v) = %v below min %v", q, f, h.Min())
		}
	}
	if NewHist().QuantileFloor(0.99) != 0 {
		t.Fatal("empty hist QuantileFloor != 0")
	}
	spread := NewHist()
	for i := 1; i <= 1000; i++ {
		spread.Record(simtime.Duration(i) * simtime.Microsecond)
	}
	// The floor of the p99 bucket must sit at or below the true p99 (990 µs)
	// and within one bucket's resolution of it.
	f := spread.QuantileFloor(0.99)
	if f > 990*simtime.Microsecond || f < 950*simtime.Microsecond {
		t.Fatalf("QuantileFloor(0.99) = %v, want just below 990µs", f)
	}
}

// Merge at bucket boundaries: the values where the log-linear scheme
// switches magnitude (63/64, 127/128, …) must land in the same buckets
// whether recorded directly or merged from another histogram.
func TestHistMergeBucketBoundaries(t *testing.T) {
	boundaries := []simtime.Duration{0, 1, 63, 64, 65, 127, 128, 129, 4095, 4096, 1 << 30, 1<<30 + 1}
	a, b, both := NewHist(), NewHist(), NewHist()
	for i, v := range boundaries {
		if i%2 == 0 {
			a.Record(v)
		} else {
			b.Record(v)
		}
		both.Record(v)
	}
	a.Merge(b)
	if a.Count() != both.Count() || a.Min() != both.Min() || a.Max() != both.Max() {
		t.Fatalf("merged summary diverged: %v vs %v", a, both)
	}
	for q := 0.0; q <= 1.0; q += 0.05 {
		if a.Quantile(q) != both.Quantile(q) {
			t.Fatalf("q=%v: merged %v != combined %v", q, a.Quantile(q), both.Quantile(q))
		}
	}
	// Merging an empty histogram is the identity.
	pre := a.String()
	a.Merge(NewHist())
	if a.String() != pre {
		t.Fatalf("merging empty changed histogram: %q -> %q", pre, a.String())
	}
}

func TestHistBuckets(t *testing.T) {
	h := NewHist()
	vals := []simtime.Duration{0, 63, 64, 1000, 1000, 1 << 20}
	for _, v := range vals {
		h.Record(v)
	}
	var total uint64
	prevUpper := simtime.Duration(-1)
	h.Buckets(func(lower, upper simtime.Duration, count uint64) {
		if lower <= prevUpper {
			t.Fatalf("buckets not ascending: lower %v after upper %v", lower, prevUpper)
		}
		if upper < lower {
			t.Fatalf("bucket [%v,%v] inverted", lower, upper)
		}
		prevUpper = upper
		total += count
	})
	if total != uint64(len(vals)) {
		t.Fatalf("bucket counts sum to %d, want %d", total, len(vals))
	}
	// Each recorded value must fall inside some reported bucket.
	for _, v := range vals {
		found := false
		h.Buckets(func(lower, upper simtime.Duration, count uint64) {
			if v >= lower && v <= upper {
				found = true
			}
		})
		if !found {
			t.Fatalf("value %v not covered by any bucket", v)
		}
	}
}

// Property: quantiles are monotonic in q and bounded by [min, max].
func TestQuickQuantileMonotone(t *testing.T) {
	f := func(seed int64, n uint16) bool {
		r := rand.New(rand.NewSource(seed))
		h := NewHist()
		count := int(n%2000) + 1
		for i := 0; i < count; i++ {
			h.Record(simtime.Duration(r.Int63n(1 << 40)))
		}
		prev := simtime.Duration(-1)
		for _, q := range []float64{0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999, 1} {
			v := h.Quantile(q)
			if v < prev || v < h.Min() || v > h.Max() {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: histogram quantisation error is bounded by the sub-bucket
// resolution (~1.6%) for any single recorded value.
func TestQuickQuantisationError(t *testing.T) {
	f := func(v uint64) bool {
		val := simtime.Duration(v % (1 << 50))
		h := NewHist()
		h.Record(val)
		got := h.Quantile(0.5)
		if val < 64 {
			return got == val
		}
		err := math.Abs(float64(got-val)) / float64(val)
		return err <= 1.0/64+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestHistRecordN(t *testing.T) {
	a, b := NewHist(), NewHist()
	a.RecordN(1000, 50)
	for i := 0; i < 50; i++ {
		b.Record(1000)
	}
	if a.Count() != b.Count() || a.Mean() != b.Mean() || a.Quantile(0.9) != b.Quantile(0.9) {
		t.Fatal("RecordN(v, 50) differs from 50×Record(v)")
	}
}

func TestHistReset(t *testing.T) {
	h := NewHist()
	h.Record(123456)
	h.Reset()
	if h.Count() != 0 || h.Mean() != 0 || h.Quantile(0.99) != 0 {
		t.Fatal("Reset did not clear histogram")
	}
	h.Record(7)
	if h.Min() != 7 || h.Max() != 7 {
		t.Fatal("histogram unusable after Reset")
	}
}

func TestSlowdown(t *testing.T) {
	s := NewSlowdown()
	// 99.5% of requests at 2x, 0.5% at 100x: p99.9 lands in the tail mode.
	for i := 0; i < 995; i++ {
		s.Record(20*simtime.Microsecond, 10*simtime.Microsecond)
	}
	for i := 0; i < 5; i++ {
		s.Record(1000*simtime.Microsecond, 10*simtime.Microsecond)
	}
	if got := s.Quantile(0.5); math.Abs(got-2.0) > 0.1 {
		t.Fatalf("median slowdown = %v, want ~2", got)
	}
	if got := s.P999(); math.Abs(got-100)/100 > 0.05 {
		t.Fatalf("p99.9 slowdown = %v, want ~100", got)
	}
}

func TestSlowdownClampsToOne(t *testing.T) {
	s := NewSlowdown()
	s.Record(5, 10) // sojourn < service can't happen physically; clamp
	if got := s.Quantile(0.5); got < 1.0-0.02 {
		t.Fatalf("slowdown %v < 1", got)
	}
}

func TestCounterRate(t *testing.T) {
	c := NewCounter(0)
	c.Add(500)
	if got := c.Rate(simtime.Second / 2); math.Abs(got-1000) > 1 {
		t.Fatalf("rate = %v, want 1000", got)
	}
	if c.Rate(0) != 0 {
		t.Fatal("zero-elapsed rate should be 0")
	}
}

func TestTableRender(t *testing.T) {
	tbl := NewTable("Fig X", "load", "a", "b")
	tbl.Add(2, map[string]float64{"a": 20, "b": 200})
	tbl.Add(1, map[string]float64{"a": 10})
	out := tbl.Render()
	if out == "" {
		t.Fatal("empty render")
	}
	// Rows sort by X.
	if idx1, idx2 := indexOf(out, "\n1"), indexOf(out, "\n2"); idx1 > idx2 {
		t.Fatalf("rows not sorted by x:\n%s", out)
	}
}

func indexOf(s, sub string) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return i
		}
	}
	return -1
}
