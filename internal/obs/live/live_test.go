package live_test

// The live bus's own determinism and shard-invariance witnesses: the
// published snapshot stream must be a pure function of (seed, plan) —
// identical across replays and across event-core shard counts — and the
// flight recorder's post-mortem bundle must be a valid, parseable export.

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"skyloft/internal/core"
	"skyloft/internal/cycles"
	"skyloft/internal/hw"
	"skyloft/internal/obs"
	"skyloft/internal/obs/causal"
	"skyloft/internal/obs/live"
	"skyloft/internal/policy/rr"
	"skyloft/internal/sched"
	"skyloft/internal/simtime"
	"skyloft/internal/trace"
)

// liveRun is one instrumented run's observable output.
type liveRun struct {
	stream    uint64
	windows   int
	traceHash uint64
	hist      []live.Snapshot
	ndjson    []byte
	triggers  uint64
	dumps     int
}

// runLive executes the shared mixed workload with the bus attached, plus an
// episode-mode causal tracer feeding exemplar summaries into the snapshots
// — so every stream-invariance and replay witness below also covers the
// tracer's exemplar selection. shards selects the event core; mutate tweaks
// the bus config before Attach.
func runLive(t *testing.T, seed uint64, shards int, mutate func(*live.Config)) liveRun {
	t.Helper()
	hwCfg := hw.DefaultConfig()
	hwCfg.Shards = shards
	m := hw.NewMachine(hwCfg)
	tr := trace.New(1 << 14)
	e := core.New(core.Config{
		Machine: m, Trace: tr, Seed: seed,
		CPUs: []int{0, 1, 2}, Mode: core.PerCPU,
		Policy:    rr.New(25 * simtime.Microsecond),
		TimerMode: core.TimerLAPIC, TimerHz: 100_000,
		Costs: core.SkyloftCosts(cycles.Default()),
	})
	defer e.Shutdown()

	var reg obs.Registry
	e.RegisterMetrics(&reg)

	var out bytes.Buffer
	cfg := live.Config{Window: 500 * simtime.Microsecond, Out: &out}
	if mutate != nil {
		mutate(&cfg)
	}
	ctr := causal.New(causal.Config{Episodes: true, TickPeriod: simtime.Second / 100_000})
	ctr.Attach(tr)
	ctr.SetDeliveryProber(e)
	bus := live.Attach(cfg, live.Source{
		Clock: m.Clock, Ring: tr, Registry: &reg,
		AppNames: e.AppNames(), Workers: e.Workers(), Causal: ctr,
	})

	for ai := 0; ai < 2; ai++ {
		app := e.NewApp("app")
		for i := 0; i < 6; i++ {
			app.Start("w", func(env sched.Env) {
				for r := 0; r < 30; r++ {
					switch env.Rand().Intn(3) {
					case 0:
						env.Run(simtime.Duration(3+env.Rand().Intn(40)) * simtime.Microsecond)
					case 1:
						env.Sleep(simtime.Duration(1+env.Rand().Intn(20)) * simtime.Microsecond)
					default:
						env.Yield()
					}
				}
			})
		}
	}
	e.Run(8 * simtime.Millisecond)

	if err := bus.Close(); err != nil {
		t.Fatalf("bus close: %v", err)
	}
	r := liveRun{
		stream:    bus.StreamHash(),
		windows:   bus.Windows(),
		traceHash: tr.Hash(),
		hist:      bus.History(-1),
		ndjson:    out.Bytes(),
	}
	if rec := bus.Recorder(); rec != nil {
		r.triggers = rec.Triggers()
		r.dumps = rec.Dumps()
		if err := rec.Err(); err != nil {
			t.Fatalf("recorder: %v", err)
		}
	}
	return r
}

// canonical strips the Engine section (host shard topology) so snapshot
// sequences can be compared across shard counts the same way the stream
// hash does.
func canonical(t *testing.T, snaps []live.Snapshot) []byte {
	t.Helper()
	var b bytes.Buffer
	for _, s := range snaps {
		s.Engine = nil
		line, err := json.Marshal(&s)
		if err != nil {
			t.Fatal(err)
		}
		b.Write(line)
		b.WriteByte('\n')
	}
	return b.Bytes()
}

// TestStreamShardInvariance is the shard differential: the serial clock and
// the engine at 1, 2, 4 and 8 lanes must publish identical window sequences
// — same stream hash, same window count, same canonical snapshots — and
// the trace hash must match serial too (the bus rides on the engine's
// serial-equivalence guarantee).
func TestStreamShardInvariance(t *testing.T) {
	serial := runLive(t, 7, 0, nil)
	if serial.windows < 8 {
		t.Fatalf("serial run published only %d windows; workload too short", serial.windows)
	}
	want := canonical(t, serial.hist)
	for _, shards := range []int{1, 2, 4, 8} {
		sharded := runLive(t, 7, shards, nil)
		if sharded.traceHash != serial.traceHash {
			t.Errorf("shards=%d: trace hash %#x, serial %#x", shards, sharded.traceHash, serial.traceHash)
		}
		if sharded.stream != serial.stream {
			t.Errorf("shards=%d: stream hash %#x, serial %#x", shards, sharded.stream, serial.stream)
		}
		if sharded.windows != serial.windows {
			t.Errorf("shards=%d: %d windows, serial %d", shards, sharded.windows, serial.windows)
		}
		if got := canonical(t, sharded.hist); !bytes.Equal(got, want) {
			t.Errorf("shards=%d: canonical snapshot stream diverged from serial", shards)
		}
		// The engine profile must be present on sharded runs and absent on
		// serial — and carry the configured lane count.
		last := sharded.hist[len(sharded.hist)-1]
		if last.Engine == nil || last.Engine.Shards != shards || len(last.Engine.Lanes) != shards {
			t.Errorf("shards=%d: engine profile missing or wrong: %+v", shards, last.Engine)
		}
	}
	if serial.hist[len(serial.hist)-1].Engine != nil {
		t.Error("serial run carries an engine profile")
	}
}

// TestStreamReplayDeterminism: same seed, same shard count, twice — the
// exported NDJSON must be byte-identical and the stream hash equal.
func TestStreamReplayDeterminism(t *testing.T) {
	a := runLive(t, 21, 2, nil)
	b := runLive(t, 21, 2, nil)
	if a.stream != b.stream {
		t.Fatalf("stream hashes diverged across replays: %#x vs %#x", a.stream, b.stream)
	}
	if !bytes.Equal(a.ndjson, b.ndjson) {
		t.Fatal("NDJSON streams diverged across replays")
	}
	if len(a.ndjson) == 0 {
		t.Fatal("run exported no NDJSON")
	}
	// Every line must decode back into a snapshot with a monotonic seq.
	lines := bytes.Split(bytes.TrimSpace(a.ndjson), []byte("\n"))
	if len(lines) != a.windows {
		t.Fatalf("%d NDJSON lines for %d windows", len(lines), a.windows)
	}
	for i, line := range lines {
		var s live.Snapshot
		if err := json.Unmarshal(line, &s); err != nil {
			t.Fatalf("line %d: %v", i, err)
		}
		if s.Seq != i {
			t.Fatalf("line %d has seq %d", i, s.Seq)
		}
	}
}

// TestHistorySince: the /history cursor semantics — Seq > since, oldest
// first, bounded by the configured ring.
func TestHistorySince(t *testing.T) {
	r := runLive(t, 5, 0, func(c *live.Config) { c.History = 4 })
	if len(r.hist) != 4 {
		t.Fatalf("history retained %d snapshots, want 4", len(r.hist))
	}
	last := r.hist[len(r.hist)-1].Seq
	if last != r.windows-1 {
		t.Fatalf("newest retained seq %d, want %d", last, r.windows-1)
	}
	for i := 1; i < len(r.hist); i++ {
		if r.hist[i].Seq != r.hist[i-1].Seq+1 {
			t.Fatalf("history seqs not contiguous: %d after %d", r.hist[i].Seq, r.hist[i-1].Seq)
		}
	}
}

// TestFlightDump forces the starvation detector with a threshold below any
// real wakeup latency, and validates the recorder's bundle: trace.json is
// parseable Perfetto JSON with events, manifest.json names the trigger and
// carries exemplar summaries, metrics.json is a valid registry snapshot,
// and exemplars.json is a causal document skyloft-explain can read.
func TestFlightDump(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "bundle")
	r := runLive(t, 13, 2, func(c *live.Config) {
		c.Starvation = simtime.Nanosecond // everything starves: guaranteed finding
		c.Recorder = &live.Recorder{Dir: dir}
	})
	if r.triggers == 0 || r.dumps != 1 {
		t.Fatalf("triggers=%d dumps=%d, want >=1 triggers and exactly 1 dump", r.triggers, r.dumps)
	}

	var manifest struct {
		Reason    string           `json:"reason"`
		AtNs      int64            `json:"at_ns"`
		Trigger   uint64           `json:"trigger"`
		Events    int              `json:"events"`
		Exemplars []causal.Summary `json:"exemplars"`
	}
	readJSON(t, filepath.Join(dir, "manifest.json"), &manifest)
	if !strings.HasPrefix(manifest.Reason, "live finding: ") {
		t.Errorf("manifest reason %q, want a live-finding trigger", manifest.Reason)
	}
	if manifest.Events == 0 {
		t.Error("manifest reports zero retained events")
	}
	if len(manifest.Exemplars) == 0 {
		t.Error("manifest carries no exemplar summaries")
	}

	var tj struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	readJSON(t, filepath.Join(dir, "trace.json"), &tj)
	if len(tj.TraceEvents) == 0 {
		t.Error("trace.json carries no trace events")
	}

	var metrics []struct {
		Name string `json:"name"`
	}
	readJSON(t, filepath.Join(dir, "metrics.json"), &metrics)
	if len(metrics) == 0 {
		t.Error("metrics.json is empty")
	}

	// exemplars.json must round-trip through the skyloft-explain reader —
	// both as the file and as the bundle directory — and its worst exemplar
	// must hold the tiling invariant the tracer enforces.
	doc, err := causal.ReadDocument(dir)
	if err != nil {
		t.Fatalf("reading exemplars.json: %v", err)
	}
	if len(doc.Exemplars) == 0 {
		t.Fatal("exemplars.json retains no exemplars")
	}
	worst := doc.Worst()
	if worst.Sojourn <= 0 {
		t.Fatalf("worst exemplar has sojourn %v", worst.Sojourn)
	}
	if got := worst.Breakdown.Total(); got != worst.Sojourn {
		t.Fatalf("worst exemplar edges sum to %v, sojourn %v", got, worst.Sojourn)
	}
	var buf bytes.Buffer
	if err := causal.Explain(&buf, worst); err != nil {
		t.Fatalf("explain: %v", err)
	}
	if !strings.Contains(buf.String(), "critical path:") {
		t.Fatalf("explain output lacks a critical path line:\n%s", buf.String())
	}
}

// TestFlightQuietWithoutFindings: with the default threshold nothing in the
// clean workload starves, so an armed recorder must stay silent.
func TestFlightQuietWithoutFindings(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "bundle")
	r := runLive(t, 13, 0, func(c *live.Config) {
		c.Recorder = &live.Recorder{Dir: dir}
	})
	if r.triggers != 0 || r.dumps != 0 {
		t.Fatalf("clean run triggered the recorder: triggers=%d dumps=%d", r.triggers, r.dumps)
	}
	if _, err := os.Stat(dir); !os.IsNotExist(err) {
		t.Fatalf("clean run created a bundle directory: %v", err)
	}
}

func readJSON(t *testing.T, path string, v any) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading %s: %v", path, err)
	}
	if err := json.Unmarshal(data, v); err != nil {
		t.Fatalf("decoding %s: %v", path, err)
	}
}

// TestStreamHashGolden pins the stream hash of the shared workload, with
// the default starvation threshold and with one low enough to raise
// findings. The window accumulators (wake histograms, per-app and
// starvation maps) are reset in place at every window close rather than
// reallocated; these hashes were captured when they were still rebuilt per
// window, so any state leaking from one window into the next changes them.
func TestStreamHashGolden(t *testing.T) {
	if got := runLive(t, 7, 0, nil).stream; got != 0x9ddf557a49c8fb26 {
		t.Errorf("stream hash %#x, want 0x9ddf557a49c8fb26", got)
	}
	starving := runLive(t, 7, 0, func(c *live.Config) { c.Starvation = 5 * simtime.Microsecond })
	findings := 0
	for _, s := range starving.hist {
		findings += len(s.Findings)
	}
	if findings == 0 {
		t.Fatal("low starvation threshold raised no findings; the pin covers nothing")
	}
	if starving.stream != 0x9d45187cde7a0d70 {
		t.Errorf("starving stream hash %#x, want 0x9d45187cde7a0d70", starving.stream)
	}
}
