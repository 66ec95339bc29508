package kvstore

import (
	"slices"
	"strings"
)

// LSM is a miniature log-structured merge store standing in for RocksDB:
// writes land in a memtable kept sorted by key; a full memtable becomes the
// newest immutable sorted run as-is; reads binary-search the memtable then
// the runs newest-first; range scans and compactions are one k-way merge
// with a cursor per level, positioned by binary search and stopping after
// the last row. A GET costs O(levels·log n) and a SCAN O(levels·log n +
// rows), so the store does genuine work for both request kinds while their
// virtual-time service times (0.95 µs vs 591 µs) come from the paper's
// measured distributions.
type LSM struct {
	memtable     []kv // sorted by key, one entry per key
	memLimit     int
	runs         [][]kv // newest first
	compactAfter int    // merge all runs once this many accumulate

	gets, scans, puts, flushes, compactions uint64
}

type kv struct {
	k, v string
}

func cmpKey(e kv, key string) int { return strings.Compare(e.k, key) }

// seek returns the index of the first entry in level with key >= key and
// whether that entry's key equals key.
func seek(level []kv, key string) (int, bool) {
	return slices.BinarySearchFunc(level, key, cmpKey)
}

// NewLSM creates a store that flushes its memtable at memLimit entries and
// compacts once 4 runs accumulate.
func NewLSM(memLimit int) *LSM {
	if memLimit <= 0 {
		memLimit = 4096
	}
	return &LSM{memLimit: memLimit, compactAfter: 4}
}

// Put inserts or updates a key.
func (l *LSM) Put(key, value string) {
	l.puts++
	i, ok := seek(l.memtable, key)
	if ok {
		l.memtable[i].v = value
		return
	}
	l.memtable = slices.Insert(l.memtable, i, kv{key, value})
	if len(l.memtable) >= l.memLimit {
		l.flush()
	}
}

// flush turns the memtable, already sorted, into the newest run.
func (l *LSM) flush() {
	if len(l.memtable) == 0 {
		return
	}
	l.flushes++
	l.runs = append([][]kv{l.memtable}, l.runs...)
	l.memtable = nil
	if len(l.runs) >= l.compactAfter {
		l.compact()
	}
}

// compact merges all runs into one, newest value winning.
func (l *LSM) compact() {
	l.compactions++
	n := 0
	for _, r := range l.runs {
		n += len(r)
	}
	run := make([]kv, 0, n)
	merge(l.runs, "", func(e kv) bool {
		run = append(run, e)
		return true
	})
	l.runs = [][]kv{run}
}

// Get looks up a key: memtable first, then runs newest-first.
func (l *LSM) Get(key string) (string, bool) {
	l.gets++
	if i, ok := seek(l.memtable, key); ok {
		return l.memtable[i].v, true
	}
	for _, run := range l.runs {
		if i, ok := seek(run, key); ok {
			return run[i].v, true
		}
	}
	return "", false
}

// Scan returns, in key order, the values of up to limit keys in
// [start, end), merged across the memtable and all runs (newest value
// wins). A limit <= 0 means no limit.
func (l *LSM) Scan(start, end string, limit int) []string {
	l.scans++
	var buf [8][]kv // stack room for the usual <= 4 levels
	levels := append(append(buf[:0], l.memtable), l.runs...)
	// Size the result from the levels' entry counts in range, an upper
	// bound on the distinct keys the merge can emit.
	n := 0
	for _, lv := range levels {
		i, _ := seek(lv, start)
		j, _ := seek(lv, end)
		n += max(j-i, 0)
	}
	if limit > 0 {
		n = min(n, limit)
	}
	out := make([]string, 0, n)
	merge(levels, start, func(e kv) bool {
		if e.k >= end {
			return false
		}
		out = append(out, e.v)
		return limit <= 0 || len(out) < limit
	})
	return out
}

// merge walks levels (newest first, each sorted by key) in ascending key
// order from the first key >= start, passing emit the newest entry of each
// distinct key until emit returns false or every level is exhausted.
func merge(levels [][]kv, start string, emit func(kv) bool) {
	var buf [8]int
	pos := buf[:0]
	for _, lv := range levels {
		i, _ := seek(lv, start)
		pos = append(pos, i)
	}
	for {
		best := -1
		for i, lv := range levels {
			if pos[i] < len(lv) && (best < 0 || lv[pos[i]].k < levels[best][pos[best]].k) {
				best = i
			}
		}
		if best < 0 {
			return
		}
		e := levels[best][pos[best]]
		for i, lv := range levels {
			if pos[i] < len(lv) && lv[pos[i]].k == e.k {
				pos[i]++
			}
		}
		if !emit(e) {
			return
		}
	}
}

// Len reports an upper bound on distinct keys (memtable + run entries).
func (l *LSM) Len() int {
	n := len(l.memtable)
	for _, r := range l.runs {
		n += len(r)
	}
	return n
}

// Stats reports operation counters.
func (l *LSM) Stats() (gets, scans, puts, flushes, compactions uint64) {
	return l.gets, l.scans, l.puts, l.flushes, l.compactions
}
