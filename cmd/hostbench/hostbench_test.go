package main

import (
	"bytes"
	"compress/gzip"
	"io"
	"path/filepath"
	"strings"
	"testing"
)

// TestMirrorMatchesPublicRunner is the mirror-fidelity check: for every
// workload at a tiny size, hostbench's mirror built from public
// constructors must reproduce the internal/bench runner's simulated
// digest exactly.
func TestMirrorMatchesPublicRunner(t *testing.T) {
	for _, w := range workloads {
		for _, seed := range []uint64{1, 2} {
			want := w.public(seed, w.tiny)
			r := runRep(w, seed, w.tiny, &repClock{rep: 1})
			if r.err != nil {
				t.Errorf("%s seed %d: %v", w.name, seed, r.err)
				continue
			}
			if r.out.digest != want {
				t.Errorf("%s seed %d: mirror digest %016x, public runner %016x", w.name, seed, r.out.digest, want)
			}
			if r.events == 0 || r.sim <= 0 {
				t.Errorf("%s seed %d: %d events over %v simulated", w.name, seed, r.events, r.sim)
			}
		}
	}
}

// TestTracedRunFoldsEveryLayer runs the traced path at the tiny size and
// checks that it reports every per-layer metric and that the allocation
// fold accounts for the rep's allocations. The profile misses tiny
// allocations packed into an already open 16-byte block, so the layers
// may sum to less than MemStats counts, never more.
func TestTracedRunFoldsEveryLayer(t *testing.T) {
	ws, err := lookupWorkloads("memcached")
	if err != nil {
		t.Fatal(err)
	}
	w := *ws[0]
	w.full = w.tiny
	res := benchWorkload(&w, config{seed: 1, reps: 2, traced: true}, &tracer{}, io.Discard)
	if res.Failed != 0 {
		t.Fatalf("failed reps: %v", res.Problems)
	}
	names := perLayerNames()
	if len(res.PerLayer) != len(names) {
		t.Fatalf("%d per-layer metrics, want %d", len(res.PerLayer), len(names))
	}
	var layerAllocs float64
	for i, m := range res.PerLayer {
		if m.Name != names[i].name || m.Unit != names[i].unit {
			t.Errorf("per-layer metric %d is %s (%s), want %s (%s)", i, m.Name, m.Unit, names[i].name, names[i].unit)
		}
		if strings.HasSuffix(m.Name, ".allocs_per_event") {
			layerAllocs += m.Value
		}
	}
	e2e, _ := findMetric(res.Metrics, "allocs_per_event")
	if layerAllocs < 0.5*e2e.Value || layerAllocs > 1.01*e2e.Value {
		t.Errorf("layer allocs/event sum %.3f, end-to-end %.3f", layerAllocs, e2e.Value)
	}
}

func TestBadFlagsExitTwo(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "nope"},
		{"-reps", "0"},
		{"-reps", "-3"},
		{"-seconds", "0"},
		{"-seconds", "-1"},
		{"-reps", "2", "-seconds", "1"},
		{"-trace-out", "x.json"},
		{"-workload", "dispersive", "extra"},
		{"-diff", "only-one.json"},
		{"-no-such-flag"},
	} {
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut); code != 2 {
			t.Errorf("run(%q) = %d, want 2 (stderr %q)", args, code, errOut.String())
		}
		if out.Len() != 0 {
			t.Errorf("run(%q) printed %q", args, out.String())
		}
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json in step with the
// workloads and metrics this command reports.
func TestBenchmarkJSONMatches(t *testing.T) {
	var def struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := readJSON(filepath.Join("..", "..", "BENCHMARK.json"), &def); err != nil {
		t.Fatal(err)
	}
	var got, want []string
	for _, w := range def.Workloads {
		got = append(got, w.Name)
	}
	for _, w := range workloads {
		want = append(want, w.name)
	}
	for _, m := range def.EndToEnd {
		got = append(got, m.Name+" "+m.Unit)
	}
	for _, m := range endToEndMetrics {
		want = append(want, m.name+" "+m.unit)
	}
	for _, m := range def.PerLayer {
		got = append(got, m.Name+" "+m.Unit)
	}
	for _, m := range perLayerNames() {
		want = append(want, m.name+" "+m.unit)
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("BENCHMARK.json lists\n%s\nhostbench reports\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

func TestDiff(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, v any) string {
		path := filepath.Join(dir, name)
		if err := writeJSON(path, v); err != nil {
			t.Fatal(err)
		}
		return path
	}
	bounds := write("bench.json", map[string]any{"end_to_end": []map[string]any{
		{"name": "ns_per_event", "unit": "ns", "better": "lower", "bound": 0.1},
		{"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
	}})
	rep := func(ns, setup, failed float64) report {
		return report{Workloads: []*result{{
			Name: "dispersive", FailedFrac: failed,
			Metrics: []metric{{Name: "ns_per_event", Value: ns}, {Name: "setup_s", Value: setup}},
		}}}
	}
	base := write("base.json", rep(100, 1, 0))
	for _, c := range []struct {
		name   string
		cand   report
		code   int
		output string
	}{
		{"within bounds", rep(108, 1.2, 0), 0, "unchanged"},
		{"faster", rep(80, 1, 0), 0, "improved"},
		{"slower", rep(111, 1, 0), 1, "regressed"},
		{"more failures", rep(100, 1, 0.1), 1, "regressed"},
		{"missing workload", report{}, 1, "missing"},
	} {
		var out bytes.Buffer
		code := run([]string{"-diff", "-bounds", bounds, base, write(c.name+".json", c.cand)}, &out, io.Discard)
		if code != c.code || !strings.Contains(out.String(), c.output) {
			t.Errorf("%s: exit %d, want %d; output:\n%s", c.name, code, c.code, out.String())
		}
	}
}

func TestChromeTrace(t *testing.T) {
	path := filepath.Join(t.TempDir(), "spans.json")
	spans := []span{{name: "core.New", cat: "setup", parent: "rep", workload: "schbench", rep: 1, start: 1000, end: 3000}}
	if err := writeChromeTrace(path, spans, workloads); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name    string
			Ph      string
			Ts, Dur float64
			Tid     int
		}
	}
	if err := readJSON(path, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.TraceEvents) != 1 {
		t.Fatalf("%d events, want 1", len(doc.TraceEvents))
	}
	ev := doc.TraceEvents[0]
	if ev.Name != "core.New" || ev.Ph != "X" || ev.Ts != 1 || ev.Dur != 2 || ev.Tid != 2 {
		t.Errorf("event %+v", ev)
	}
}

// ---- profile decoder and layer fold ----

// pb is a minimal protobuf encoder for building test profiles.
type pb struct{ b []byte }

func (p *pb) varint(v uint64) {
	for v >= 0x80 {
		p.b = append(p.b, byte(v)|0x80)
		v >>= 7
	}
	p.b = append(p.b, byte(v))
}

func (p *pb) uint(field int, v uint64) {
	p.varint(uint64(field) << 3)
	p.varint(v)
}

func (p *pb) bytes(field int, b []byte) {
	p.varint(uint64(field)<<3 | 2)
	p.varint(uint64(len(b)))
	p.b = append(p.b, b...)
}

// uints writes a repeated field packed when it has more than two values,
// as runtime/pprof does.
func (p *pb) uints(field int, vs []uint64) {
	if len(vs) <= 2 {
		for _, v := range vs {
			p.uint(field, v)
		}
		return
	}
	var packed pb
	for _, v := range vs {
		packed.varint(v)
	}
	p.bytes(field, packed.b)
}

// buildProfile encodes a gzipped profile with sample types
// ("samples", "cpu"). Each sample is a list of locations, leaf first;
// each location lists its functions innermost first (inlining).
func buildProfile(t *testing.T, samples [][][]string, values []int64) []byte {
	t.Helper()
	var p pb
	strs := []string{""}
	str := func(s string) uint64 {
		for i, x := range strs {
			if x == s {
				return uint64(i)
			}
		}
		strs = append(strs, s)
		return uint64(len(strs) - 1)
	}
	for _, typ := range []string{"samples", "cpu"} {
		var vt pb
		vt.uint(1, str(typ))
		vt.uint(2, str("count"))
		p.bytes(1, vt.b)
	}
	funcs := map[string]uint64{}
	var fnMsgs, locMsgs []pb
	for i, s := range samples {
		var locIDs []uint64
		for _, loc := range s {
			var lm pb
			id := uint64(len(locMsgs) + 1)
			lm.uint(1, id)
			for _, fn := range loc {
				fid, ok := funcs[fn]
				if !ok {
					fid = uint64(len(funcs) + 1)
					funcs[fn] = fid
					var fm pb
					fm.uint(1, fid)
					fm.uint(2, str(fn))
					fnMsgs = append(fnMsgs, fm)
				}
				var line pb
				line.uint(1, fid)
				line.uint(2, 42)
				lm.bytes(4, line.b)
			}
			locMsgs = append(locMsgs, lm)
			locIDs = append(locIDs, id)
		}
		var sm pb
		sm.uints(1, locIDs)
		sm.uints(2, []uint64{uint64(values[i]), uint64(values[i]) * 2_000_000})
		p.bytes(2, sm.b)
	}
	for _, m := range locMsgs {
		p.bytes(4, m.b)
	}
	for _, m := range fnMsgs {
		p.bytes(5, m.b)
	}
	p.uint(12, 2_000_000) // period: a field the decoder skips
	for _, s := range strs {
		p.bytes(6, []byte(s))
	}
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if _, err := zw.Write(p.b); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestLayerFold(t *testing.T) {
	cases := []struct {
		name  string
		stack [][]string
		layer string
	}{
		{"plain", [][]string{{"skyloft/internal/simtime.(*Clock).Step"}, {"main.run"}}, "simtime"},
		{"inlined helper under kvstore",
			[][]string{{"skyloft/internal/det.SortedKeys[go.shape.string]", "skyloft/internal/apps/kvstore.(*LSM).Scan"}, {"main.init.func4.1"}},
			"kvstore"},
		{"inlined layer frame wins",
			[][]string{{"skyloft/internal/hw.(*Core).Exec", "skyloft/internal/core.(*Engine).dispatch"}},
			"hw"},
		{"helpers skipped",
			[][]string{{"runtime.mallocgc"}, {"skyloft/internal/rng.(*Rand).Uint64"}, {"skyloft/internal/stats.(*Hist).Record"}, {"skyloft/internal/loadgen.(*Gen).next"}},
			"loadgen"},
		{"subpackage", [][]string{{"skyloft/internal/policy/cfs.(*Policy).PickNext"}}, "policy"},
		{"baseline is ksched", [][]string{{"skyloft/internal/baseline/linuxsim.New"}}, "ksched"},
		{"apps", [][]string{{"skyloft/internal/apps/server.Feed.func1"}}, "apps"},
		{"obs subpackage", [][]string{{"skyloft/internal/obs/live.(*Bus).onEvent"}}, "obs"},
		{"stdlib under hostbench", [][]string{{"fmt.Sprintf"}, {"main.dispersiveMirror"}}, "hostbench"},
		{"type arguments hold paths",
			[][]string{{"skyloft/internal/det.SortedKeys[map[string]*skyloft/internal/hw.Core,string,*skyloft/internal/hw.Core]"}, {"skyloft/internal/trace.(*Ring).Record"}},
			"trace"},
		{"gc worker", [][]string{{"runtime.scanobject"}, {"runtime.gcDrain"}, {"runtime.gcBgMarkWorker"}}, "runtime.gc"},
		{"gc pseudo-frame", [][]string{{"runtime._GC"}}, "runtime.gc"},
		{"scheduler", [][]string{{"runtime.futex"}, {"runtime.schedule"}, {"runtime.mcall"}}, "runtime.sched"},
		{"empty stack", nil, ""},
	}
	var samples [][][]string
	var values []int64
	want := map[string]int64{}
	var total int64
	for i, c := range cases {
		frames := classify(flatten(c.stack))
		if frames != c.layer {
			t.Errorf("%s: classify = %q, want %q", c.name, frames, c.layer)
		}
		v := int64(i + 1)
		samples = append(samples, c.stack)
		values = append(values, v)
		total += v
		if c.layer != "" {
			want[c.layer] += v
		}
	}

	p, err := parseProfile(buildProfile(t, samples, values))
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range cases {
		if got := p.frames(p.samples[i]); strings.Join(got, "|") != strings.Join(flatten(c.stack), "|") {
			t.Errorf("%s: decoded frames %q, want %q", c.name, got, flatten(c.stack))
		}
	}
	got, gotTotal, err := fold(p, "samples")
	if err != nil {
		t.Fatal(err)
	}
	if gotTotal != total {
		t.Errorf("total %d, want %d", gotTotal, total)
	}
	for _, l := range layers {
		if got[l] != want[l] {
			t.Errorf("layer %s: %d, want %d", l, got[l], want[l])
		}
	}
	cpu, _, err := fold(p, "cpu")
	if err != nil || cpu["simtime"] != 2_000_000 {
		t.Errorf("cpu fold: simtime %d, err %v", cpu["simtime"], err)
	}
	if _, _, err := fold(p, "alloc_objects"); err == nil {
		t.Error("fold of a missing sample type succeeded")
	}
}

func flatten(stack [][]string) []string {
	var out []string
	for _, loc := range stack {
		out = append(out, loc...)
	}
	return out
}

func TestParseProfileRejectsBadInput(t *testing.T) {
	for _, in := range [][]byte{
		{0x0a, 0x05, 0x01},             // length past the end
		{0x12, 0x03, 0x0a, 0x01, 0xff}, // sample whose packed varint is cut short
		{0x0b},                         // wire type 3
		{0x1f, 0x8b, 0x00},             // gzip header cut short
		{0x0a, 0x02, 0x08, 0x07},       // sample type naming a missing string
	} {
		if _, err := parseProfile(in); err == nil {
			t.Errorf("parseProfile(% x) succeeded", in)
		}
	}
}
