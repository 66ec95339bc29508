package kvstore

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
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

// Property: under any interleaving of Put/Get/Scan on a 3-entry memtable —
// so overwrites straddle the memtable, several runs and compactions — the
// LSM answers exactly as a plain map plus sort.Strings does, for scans with
// empty, inverted, open-ended and limited ranges alike.
func TestQuickLSMInterleavedVsMap(t *testing.T) {
	key := func(n uint32) string { return fmt.Sprintf("k%02d", n%24) }
	f := func(ops []uint32) bool {
		l := NewLSM(3)
		ref := map[string]string{}
		for i, op := range ops {
			switch op % 4 {
			case 0, 1:
				k, v := key(op>>2), fmt.Sprintf("v%d", i)
				l.Put(k, v)
				ref[k] = v
			case 2:
				got, ok := l.Get(key(op >> 2))
				want, wok := ref[key(op>>2)]
				if ok != wok || got != want {
					return false
				}
			case 3:
				start, end := key(op>>2), key(op>>8)
				switch op >> 14 % 4 {
				case 0:
					end = ""
				case 1:
					start = ""
				}
				limit := int(op>>16%32) - 4 // -4..27: none, tight and beyond the range
				got := l.Scan(start, end, limit)
				if want := refScan(ref, start, end, limit); !slices.Equal(got, want) {
					t.Logf("Scan(%q, %q, %d) = %v, want %v", start, end, limit, got, want)
					return false
				}
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 300, Values: func(args []reflect.Value, r *rand.Rand) {
		ops := make([]uint32, r.Intn(400))
		for i := range ops {
			ops[i] = r.Uint32()
		}
		args[0] = reflect.ValueOf(ops)
	}}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
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

// fig8bLSM is the Fig. 8b store: a 4096-entry memtable over 20,000
// preloaded keys.
func fig8bLSM() *LSM {
	l := NewLSM(4096)
	for i := 0; i < 20000; i++ {
		l.Put(fmt.Sprintf("key-%08d", i), fmt.Sprintf("value-%d", i))
	}
	return l
}

func BenchmarkLSMScan(b *testing.B) {
	l := fig8bLSM()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := i * 7919 % 19000
		if rows := l.Scan(fmt.Sprintf("key-%08d", n), fmt.Sprintf("key-%08d", n+500), 500); len(rows) != 500 {
			b.Fatalf("scan returned %d rows", len(rows))
		}
	}
}

func BenchmarkLSMGet(b *testing.B) {
	l := fig8bLSM()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := l.Get(fmt.Sprintf("key-%08d", i*7919%20000)); !ok {
			b.Fatal("preloaded key missing")
		}
	}
}
