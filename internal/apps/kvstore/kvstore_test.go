package kvstore

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
)

func TestMemcacheBasic(t *testing.T) {
	m := NewMemcache(4)
	m.Set("a", "1")
	m.Set("b", "2")
	if v, ok := m.Get("a"); !ok || v != "1" {
		t.Fatal("Get(a) wrong")
	}
	if _, ok := m.Get("zz"); ok {
		t.Fatal("Get(zz) should miss")
	}
	m.Set("a", "3")
	if v, _ := m.Get("a"); v != "3" {
		t.Fatal("overwrite failed")
	}
	if m.Len() != 2 {
		t.Fatalf("Len = %d", m.Len())
	}
	if !m.Delete("a") || m.Delete("a") {
		t.Fatal("Delete semantics wrong")
	}
	hits, misses, sets := m.Stats()
	if hits != 2 || misses != 1 || sets != 3 {
		t.Fatalf("stats = %d/%d/%d", hits, misses, sets)
	}
}

func TestMemcachePreload(t *testing.T) {
	m := NewMemcache(16)
	m.Preload(1000)
	if m.Len() != 1000 {
		t.Fatalf("Len = %d", m.Len())
	}
	if v, ok := m.Get("key-500"); !ok || v != "value-500" {
		t.Fatal("preloaded key missing")
	}
}

// Property: Memcache behaves like a map under any op sequence.
func TestQuickMemcacheVsMap(t *testing.T) {
	f := func(ops []uint16) bool {
		m := NewMemcache(8)
		ref := map[string]string{}
		for i, op := range ops {
			key := fmt.Sprintf("k%d", op%50)
			switch op % 3 {
			case 0:
				val := fmt.Sprintf("v%d", i)
				m.Set(key, val)
				ref[key] = val
			case 1:
				got, ok := m.Get(key)
				want, wok := ref[key]
				if ok != wok || got != want {
					return false
				}
			case 2:
				if m.Delete(key) != (func() bool { _, ok := ref[key]; return ok })() {
					return false
				}
				delete(ref, key)
			}
		}
		return m.Len() == len(ref)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestLSMGetAcrossFlushes(t *testing.T) {
	l := NewLSM(10) // tiny memtable: force flushes
	for i := 0; i < 100; i++ {
		l.Put(fmt.Sprintf("key-%03d", i), fmt.Sprintf("v%d", i))
	}
	for i := 0; i < 100; i++ {
		v, ok := l.Get(fmt.Sprintf("key-%03d", i))
		if !ok || v != fmt.Sprintf("v%d", i) {
			t.Fatalf("key-%03d lost across flush/compaction (got %q, %v)", i, v, ok)
		}
	}
	_, _, _, flushes, compactions := l.Stats()
	if flushes == 0 || compactions == 0 {
		t.Fatalf("expected flushes and compactions: %d/%d", flushes, compactions)
	}
}

func TestLSMNewestValueWins(t *testing.T) {
	l := NewLSM(4)
	l.Put("k", "old")
	for i := 0; i < 10; i++ { // force the old value into a run
		l.Put(fmt.Sprintf("pad%d", i), "x")
	}
	l.Put("k", "new")
	if v, _ := l.Get("k"); v != "new" {
		t.Fatalf("Get = %q, want new", v)
	}
	got := l.Scan("k", "k\x00", 0)
	if len(got) != 1 || got[0] != "new" {
		t.Fatalf("Scan sees stale value: %v", got)
	}
}

func TestLSMScanRangeAndLimit(t *testing.T) {
	l := NewLSM(16)
	for i := 0; i < 50; i++ {
		l.Put(fmt.Sprintf("key-%03d", i), fmt.Sprintf("v%d", i))
	}
	out := l.Scan("key-010", "key-020", 0)
	if len(out) != 10 {
		t.Fatalf("scan returned %d values, want 10", len(out))
	}
	if out[0] != "v10" || out[9] != "v19" {
		t.Fatalf("scan range wrong: %v", out)
	}
	if lim := l.Scan("key-000", "key-050", 7); len(lim) != 7 {
		t.Fatalf("limit ignored: %d", len(lim))
	}
}

// Property: the LSM agrees with a plain map after any put sequence, and
// scans return sorted, deduplicated ranges.
func TestQuickLSMVsMap(t *testing.T) {
	f := func(keys []uint8) bool {
		l := NewLSM(8)
		ref := map[string]string{}
		for i, k := range keys {
			key := fmt.Sprintf("key-%03d", k)
			val := fmt.Sprintf("v%d", i)
			l.Put(key, val)
			ref[key] = val
		}
		for key, want := range ref {
			if got, ok := l.Get(key); !ok || got != want {
				return false
			}
		}
		// Full scan equals the sorted reference values.
		var refKeys []string
		for k := range ref {
			refKeys = append(refKeys, k)
		}
		sort.Strings(refKeys)
		got := l.Scan("key-000", "key-999", 0)
		if len(got) != len(refKeys) {
			return false
		}
		for i, k := range refKeys {
			if got[i] != ref[k] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestLSMGetMissing(t *testing.T) {
	l := NewLSM(4)
	l.Put("a", "1")
	if _, ok := l.Get("nope"); ok {
		t.Fatal("missing key found")
	}
}

// refScan is the reference range read: the values of ref's keys in
// [start, end), in key order, at most limit of them when limit > 0.
func refScan(ref map[string]string, start, end string, limit int) []string {
	var keys []string
	for k := range ref {
		if k >= start && k < end {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	if limit > 0 && len(keys) > limit {
		keys = keys[:limit]
	}
	out := []string{}
	for _, k := range keys {
		out = append(out, ref[k])
	}
	return out
}

// lsmShape is a store and key space for runLSMOps: the memtable flushes at
// memLimit entries, the key space holds keys keys, and one Put op writes
// up to span consecutive keys.
type lsmShape struct{ memLimit, keys, span int }

// lsmShapes are the stores the op-sequence check runs on. On the first, a
// 3-entry memtable over 24 keys, every stretch is short and overwrites
// straddle the memtable, several runs and compactions. On the second,
// Puts write runs of up to 24 sequential keys into a 32-entry memtable
// over 128 keys, so stretches span many rows.
var lsmShapes = []lsmShape{
	{memLimit: 3, keys: 24, span: 1},
	{memLimit: 32, keys: 128, span: 24},
}

// runLSMOps drives a fresh store of the given shape with ops and returns
// the first answer that differs from a plain map plus sort.Strings. Each
// op is four bytes: kind, a, b, c. Kinds 0 and 1 Put 1+c%span consecutive
// keys from key a; kind 2 Gets key a; kind 3 Scans from key a to key b
// with limit c%32-4 (-4..27: none, tight and beyond the range), where bits
// 2–3 of the kind select an empty end (0), an empty start (1) or neither,
// so ranges come empty, inverted, open-ended and limited alike. Every
// Scan result is appended to, and must still read as returned after all
// later ops: results may share the store's runs, which nothing writes.
func runLSMOps(shape lsmShape, ops []byte) error {
	l := NewLSM(shape.memLimit)
	ref := map[string]string{}
	keys := make([]string, shape.keys)
	for n := range keys {
		keys[n] = fmt.Sprintf("k%03d", n)
	}
	key := func(n int) string { return keys[n%shape.keys] }
	type scan struct{ got, want []string }
	var scans []scan
	for i := 0; i+4 <= len(ops); i += 4 {
		kind, a, b, c := ops[i], int(ops[i+1]), int(ops[i+2]), int(ops[i+3])
		switch kind % 4 {
		case 0, 1:
			for j := range 1 + c%shape.span {
				k, v := key(a+j), strconv.Itoa(i/4*shape.span+j) // unique per write
				l.Put(k, v)
				ref[k] = v
			}
		case 2:
			got, ok := l.Get(key(a))
			if want, wok := ref[key(a)]; ok != wok || got != want {
				return fmt.Errorf("op %d: Get(%q) = %q, %v; want %q, %v", i/4, key(a), got, ok, want, wok)
			}
		case 3:
			start, end := key(a), key(b)
			switch kind >> 2 % 4 {
			case 0:
				end = ""
			case 1:
				start = ""
			}
			limit := c%32 - 4
			got, want := l.Scan(start, end, limit), refScan(ref, start, end, limit)
			if !slices.Equal(got, want) {
				return fmt.Errorf("op %d: Scan(%q, %q, %d) = %q, want %q", i/4, start, end, limit, got, want)
			}
			_ = append(got, "appended")
			scans = append(scans, scan{got, want})
		}
	}
	for i, s := range scans {
		if !slices.Equal(s.got, s.want) {
			return fmt.Errorf("scan %d reads %q after later ops, want %q as returned", i, s.got, s.want)
		}
	}
	return nil
}

// Property: under any interleaving of Put/Get/Scan, on each store shape,
// the LSM answers exactly as a plain map plus sort.Strings does.
func TestQuickLSMInterleavedVsMap(t *testing.T) {
	for _, shape := range lsmShapes {
		f := func(ops []byte) bool {
			err := runLSMOps(shape, ops)
			if err != nil {
				t.Logf("shape %+v: %v", shape, err)
			}
			return err == nil
		}
		cfg := &quick.Config{MaxCount: 300, Values: func(args []reflect.Value, r *rand.Rand) {
			ops := make([]byte, 4*r.Intn(400))
			r.Read(ops)
			args[0] = reflect.ValueOf(ops)
		}}
		if err := quick.Check(f, cfg); err != nil {
			t.Fatalf("shape %+v: %v", shape, err)
		}
	}
}

// FuzzLSM runs runLSMOps on the store shape the first input selects. The
// seed corpus in testdata/fuzz/FuzzLSM holds the stretch-boundary cases:
// levels that interleave key by key, a tie at a stretch's end, a limit
// that cuts a stretch and a limit that ends on a tie.
func FuzzLSM(f *testing.F) {
	f.Fuzz(func(t *testing.T, shape byte, ops []byte) {
		if err := runLSMOps(lsmShapes[int(shape)%len(lsmShapes)], ops); err != nil {
			t.Fatal(err)
		}
	})
}

// A key present in the memtable and in three runs at once reads back with
// its newest value through both Get and Scan.
func TestLSMNewestWinsAcrossAllLevels(t *testing.T) {
	l := NewLSM(2)
	for i, pad := range []string{"a", "b", "c"} {
		l.Put("k", fmt.Sprintf("v%d", i))
		l.Put(pad, "x") // second entry: flush the memtable to a new run
	}
	l.Put("k", "v3")
	if _, _, _, flushes, compactions := l.Stats(); flushes != 3 || compactions != 0 {
		t.Fatalf("setup: %d flushes, %d compactions; want 3, 0", flushes, compactions)
	}
	for _, tc := range []struct {
		start, end string
		limit      int
		want       []string
	}{
		{"k", "k\x00", 0, []string{"v3"}},
		{"", "z", 0, []string{"x", "x", "x", "v3"}},
		{"b", "z", 2, []string{"x", "x"}},
		{"c", "", 0, []string{}},
		{"k", "a", 0, []string{}},
	} {
		if got := l.Scan(tc.start, tc.end, tc.limit); !slices.Equal(got, tc.want) {
			t.Errorf("Scan(%q, %q, %d) = %q, want %q", tc.start, tc.end, tc.limit, got, tc.want)
		}
	}
	if v, ok := l.Get("k"); !ok || v != "v3" {
		t.Fatalf("Get(k) = %q, %v; want v3", v, ok)
	}
	if l.Len() != 7 {
		t.Fatalf("Len = %d, want 7 (one memtable entry + three 2-entry runs)", l.Len())
	}
}

// lsmLevels builds a store whose runs, oldest first, and then memtable
// hold the given space-separated keys; each value is its key followed by
// its level's index, so the newest copy of a key carries the highest.
func lsmLevels(levels ...string) *LSM {
	l := NewLSM(1 << 10)
	for i, keys := range levels {
		for _, k := range strings.Fields(keys) {
			l.Put(k, fmt.Sprintf("%s%d", k, i))
		}
		if i < len(levels)-1 {
			l.flush()
		}
	}
	return l
}

// Scans whose stretches begin and end at each boundary the merge handles:
// every stretch one row, a tie at a stretch's end, a limit inside a
// stretch and a limit on a tie, on shared and copied results alike.
func TestLSMScanStretchBoundaries(t *testing.T) {
	for _, tc := range []struct {
		name       string
		levels     []string // oldest run first, memtable last
		start, end string
		limit      int
		want       string
	}{
		{"interleaved key by key", []string{"a d g j", "b e h k", "c f i"}, "", "z", 0, "a0 b1 c2 d0 e1 f2 g0 h1 i2 j0 k1"},
		{"interleaved inside a range", []string{"a d g j", "b e h k", "c f i"}, "c", "i", 0, "c2 d0 e1 f2 g0 h1"},
		{"tie at a stretch's end", []string{"c d e", "a b c", ""}, "", "z", 0, "a1 b1 c1 d0 e0"},
		{"tie in every level", []string{"a b c", "c d", "c e"}, "", "z", 0, "a0 b0 c2 d1 e2"},
		{"limit cuts a copied stretch", []string{"b c d e f", "a"}, "", "z", 3, "a1 b0 c0"},
		{"limit cuts a shared stretch", []string{"a b c d e f", ""}, "b", "z", 3, "b0 c0 d0"},
		{"limit ends on a tie", []string{"a b c", "c d"}, "", "z", 3, "a0 b0 c1"},
		{"limit ends before a tie", []string{"a b c", "c d"}, "", "z", 2, "a0 b0"},
		{"limit ends on a shared tie", []string{"c d", "a b c", ""}, "c", "z", 1, "c1"},
		{"end inside a stretch", []string{"a b c d e", "f"}, "b", "d", 0, "b0 c0"},
	} {
		l := lsmLevels(tc.levels...)
		if got := strings.Join(l.Scan(tc.start, tc.end, tc.limit), " "); got != tc.want {
			t.Errorf("%s: Scan(%q, %q, %d) = %q, want %q", tc.name, tc.start, tc.end, tc.limit, got, tc.want)
		}
	}
}

// A result shared from a run reads as returned through later Puts that
// overwrite its keys, the flush they cause and the compaction after it,
// and appending to it leaves the store, and so a later identical Scan,
// unchanged.
func TestLSMSharedScanSurvivesWrites(t *testing.T) {
	l := NewLSM(4)
	for i := range 16 { // four flushes: one compacted run, empty memtable
		l.Put(fmt.Sprintf("k%02d", i), fmt.Sprintf("old%d", i))
	}
	want := []string{"old2", "old3", "old4", "old5"}
	got := l.Scan("k02", "k06", 0)
	if !slices.Equal(got, want) || cap(got) != len(got) {
		t.Fatalf("Scan = %q (cap %d), want %q with cap == len", got, cap(got), want)
	}
	grown := append(got, "appended")
	if again := l.Scan("k02", "k06", 0); !slices.Equal(again, want) {
		t.Fatalf("after appending to a result, Scan = %q, want %q", again, want)
	}
	for i := range 12 { // three more flushes: a second compaction
		l.Put(fmt.Sprintf("k%02d", i), fmt.Sprintf("new%d", i))
	}
	if _, _, _, flushes, compactions := l.Stats(); flushes != 7 || compactions != 2 {
		t.Fatalf("setup: %d flushes, %d compactions; want 7, 2", flushes, compactions)
	}
	if !slices.Equal(got, want) || !slices.Equal(grown[:4], want) {
		t.Fatalf("earlier result changed to %q (appended copy %q), want %q", got, grown, want)
	}
	if now := l.Scan("k02", "k06", 0); !slices.Equal(now, []string{"new2", "new3", "new4", "new5"}) {
		t.Fatalf("Scan after overwrites = %q", now)
	}
}

// fig8bLSM is the Fig. 8b store: a 4096-entry memtable over 20,000
// preloaded keys, of which the oldest fig8bInRun sit in one compacted run
// and the rest in the memtable. It returns the keys in order.
func fig8bLSM() (*LSM, []string) {
	l := NewLSM(4096)
	keys := make([]string, 20000)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%08d", i)
		l.Put(keys[i], fmt.Sprintf("value-%d", i))
	}
	return l, keys
}

const fig8bInRun = 4 * 4096

// A Fig. 8b SCAN wholly inside the compacted run allocates nothing: it
// returns the run's own value column, capped at its length.
func TestLSMRunScanAllocatesNothing(t *testing.T) {
	l, keys := fig8bLSM()
	start, end := keys[1000], keys[1500]
	var rows []string
	if allocs := testing.AllocsPerRun(100, func() { rows = l.Scan(start, end, 500) }); allocs != 0 {
		t.Fatalf("run scan allocates %.1f times per call, want 0", allocs)
	}
	if len(rows) != 500 || cap(rows) != len(rows) || rows[0] != "value-1000" || rows[499] != "value-1499" {
		t.Fatalf("run scan returned %d rows (cap %d) from %q to %q", len(rows), cap(rows), rows[0], rows[len(rows)-1])
	}
}

// BenchmarkLSMScan runs 500-row Fig. 8b SCANs by the path they take:
// inside the compacted run (shared, 0 allocs/op), inside the memtable
// (one copy) and straddling both (a two-level merge). The store and its
// keys are built before any sub-benchmark's timer starts.
func BenchmarkLSMScan(b *testing.B) {
	l, keys := fig8bLSM()
	for _, bc := range []struct {
		name   string
		lo, hi int // first keys of the scans: [lo, hi)
	}{
		{"run", 0, fig8bInRun - 500},
		{"memtable", fig8bInRun, len(keys) - 500},
		{"straddle", fig8bInRun - 499, fig8bInRun},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				n := bc.lo + i*7919%(bc.hi-bc.lo)
				if rows := l.Scan(keys[n], keys[n+500], 500); len(rows) != 500 {
					b.Fatalf("scan returned %d rows", len(rows))
				}
			}
		})
	}
}

func BenchmarkLSMGet(b *testing.B) {
	l, keys := fig8bLSM()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := l.Get(keys[i*7919%len(keys)]); !ok {
			b.Fatal("preloaded key missing")
		}
	}
}
