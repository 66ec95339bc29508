package obs

import (
	"bytes"
	"encoding/json"
	"sort"
	"testing"

	"skyloft/internal/simtime"
)

func TestRegistrySnapshot(t *testing.T) {
	var r Registry
	c := r.Counter("z.count")
	g := r.Gauge("a.depth")
	h := r.Histogram("m.lat")
	r.CounterFunc("f.count", func() uint64 { return 7 })
	r.GaugeFunc("f.depth", func() int64 { return -3 })

	c.Add(41)
	c.Inc()
	g.Set(5)
	g.Set(2) // high-water stays 5
	g.Add(1)
	h.Record(10 * simtime.Microsecond)
	h.Record(20 * simtime.Microsecond)

	snap := r.Snapshot()
	if !sort.SliceIsSorted(snap, func(i, j int) bool { return snap[i].Name < snap[j].Name }) {
		t.Fatalf("snapshot not sorted: %v", snap)
	}
	byName := map[string]Sample{}
	for _, s := range snap {
		byName[s.Name] = s
	}
	if s := byName["z.count"]; s.Value != 42 || s.Kind != "counter" {
		t.Fatalf("counter sample wrong: %+v", s)
	}
	if s := byName["a.depth"]; s.Value != 3 || s.HighWater != 5 {
		t.Fatalf("gauge sample wrong: %+v", s)
	}
	if s := byName["m.lat"]; s.Count != 2 || s.P50 <= 0 {
		t.Fatalf("hist sample wrong: %+v", s)
	}
	if s := byName["f.count"]; s.Value != 7 {
		t.Fatalf("counter-func sample wrong: %+v", s)
	}
	if s := byName["f.depth"]; s.Value != -3 {
		t.Fatalf("gauge-func sample wrong: %+v", s)
	}
}

func TestRegistryDuplicatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration did not panic")
		}
	}()
	var r Registry
	r.Counter("x")
	r.Gauge("x")
}

func TestRecordingPathsDoNotAllocate(t *testing.T) {
	var r Registry
	c := r.Counter("c")
	g := r.Gauge("g")
	if n := testing.AllocsPerRun(100, func() {
		c.Inc()
		c.Add(3)
		g.Set(9)
		g.Add(-1)
	}); n != 0 {
		t.Fatalf("recording allocated %.1f allocs/op", n)
	}
}

func TestWriteJSONRoundTrips(t *testing.T) {
	var r Registry
	r.Counter("a").Add(1)
	r.Gauge("b").Set(2)
	r.Histogram("c").Record(simtime.Microsecond)
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var got []Sample
	if err := json.Unmarshal(buf.Bytes(), &got); err != nil {
		t.Fatalf("metrics JSON does not parse: %v", err)
	}
	if len(got) != 3 || got[0].Name != "a" {
		t.Fatalf("round-trip mismatch: %+v", got)
	}
}
