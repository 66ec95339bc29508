package kvstore

import "slices"

// LSM is a miniature log-structured merge store standing in for RocksDB.
// Every level is a pair of sorted columns, keys and their values: writes
// land in the memtable, a full memtable becomes the newest immutable run
// as-is, and reads binary-search the memtable, then the runs newest-first.
// Range scans and compactions are one k-way merge that advances by
// stretches rather than rows: each step binary-searches the level with the
// smallest head up to the smallest head of any other level and copies that
// whole stretch with one append. A scan whose rows all come from one run
// returns a window of that run's value column without copying, since
// nothing writes a run once it is built. A GET costs O(levels·log n) and
// a SCAN O((levels + stretches)·log n) plus the rows it copies, so the
// store does genuine work for both request kinds while their virtual-time
// service times (0.95 µs vs 591 µs) come from the paper's measured
// distributions.
type LSM struct {
	memtable     level // one entry per key; the only level written in place
	memLimit     int
	runs         []level // newest first; never written once built
	compactAfter int     // merge all runs once this many accumulate

	gets, scans, puts, flushes, compactions uint64
}

// level is one sorted level: keys ascend without duplicates and vals[i] is
// the value of keys[i].
type level struct {
	keys, vals []string
}

// newLevel returns an empty level with room for n rows.
func newLevel(n int) level { return level{make([]string, 0, n), make([]string, 0, n)} }

// slice returns rows [i, j) of lv, sharing its columns.
func (lv level) slice(i, j int) level { return level{lv.keys[i:j], lv.vals[i:j]} }

// bound returns the rows of lv whose keys fall in [start, end).
func (lv level) bound(start, end string) level {
	i, _ := slices.BinarySearch(lv.keys, start)
	j, _ := slices.BinarySearch(lv.keys[i:], end)
	return lv.slice(i, i+j)
}

// NewLSM creates a store that flushes its memtable at memLimit entries and
// compacts once 4 runs accumulate. Each memtable is sized at memLimit, so
// filling it never regrows its columns.
func NewLSM(memLimit int) *LSM {
	if memLimit <= 0 {
		memLimit = 4096
	}
	return &LSM{memtable: newLevel(memLimit), memLimit: memLimit, compactAfter: 4}
}

// Put inserts or updates a key.
func (l *LSM) Put(key, value string) {
	l.puts++
	mem := &l.memtable
	i, ok := slices.BinarySearch(mem.keys, key)
	if ok {
		mem.vals[i] = value
		return
	}
	mem.keys = slices.Insert(mem.keys, i, key)
	mem.vals = slices.Insert(mem.vals, i, value)
	if len(mem.keys) >= l.memLimit {
		l.flush()
	}
}

// flush hands the memtable's columns, already sorted, over as the newest
// run and starts the memtable on fresh ones, so a run never shares memory
// that a later Put writes.
func (l *LSM) flush() {
	l.flushes++
	l.runs = slices.Insert(l.runs, 0, l.memtable)
	l.memtable = newLevel(l.memLimit)
	if len(l.runs) >= l.compactAfter {
		l.compact()
	}
}

// compact merges all runs into one new run, newest value winning.
func (l *LSM) compact() {
	l.compactions++
	n := 0
	for _, r := range l.runs {
		n += len(r.keys)
	}
	run := newLevel(n)
	m := merger(slices.Clone(l.runs))
	for s, _, ok := m.next(); ok; s, _, ok = m.next() {
		run.keys = append(run.keys, s.keys...)
		run.vals = append(run.vals, s.vals...)
	}
	l.runs = []level{run}
}

// Get looks up a key: memtable first, then runs newest-first.
func (l *LSM) Get(key string) (string, bool) {
	l.gets++
	if i, ok := slices.BinarySearch(l.memtable.keys, key); ok {
		return l.memtable.vals[i], true
	}
	for _, r := range l.runs {
		if i, ok := slices.BinarySearch(r.keys, key); ok {
			return r.vals[i], true
		}
	}
	return "", false
}

// Scan returns, in key order, the values of up to limit keys in
// [start, end), merged across the memtable and all runs (newest value
// wins). A limit <= 0 means no limit.
//
// The result may share the store's memory: callers must not write its
// elements. Appending to it is safe, because a shared result's capacity
// equals its length, so append copies.
func (l *LSM) Scan(start, end string, limit int) []string {
	l.scans++
	var buf [8]level // stack room for the usual <= 4 levels
	m := merger(append(buf[:0], l.memtable.bound(start, end)))
	// The levels' row counts in range bound the distinct keys the merge
	// can emit.
	n := len(m[0].keys)
	for _, r := range l.runs {
		b := r.bound(start, end)
		m = append(m, b)
		n += len(b.keys)
	}
	if limit > 0 {
		n = min(n, limit)
	}
	s, src, ok := m.next()
	if src > 0 && len(s.vals) >= n {
		// The first n rows all come from one run, which is never written
		// again: share its value column, capped so append copies.
		return s.vals[:n:n]
	}
	out := make([]string, 0, n)
	for ok && len(out) < n {
		out = append(out, s.vals[:min(len(s.vals), n-len(out))]...)
		s, _, ok = m.next()
	}
	return out
}

// merger walks levels, newest first and each sorted by key, in ascending
// key order, consuming each level from its head.
type merger []level

// next takes the next stretch off the merge: rows of the level src whose
// keys sort before every other level's head, so each is the newest copy of
// its key. On a tie at the head, the newest copy is the stretch alone and
// the older copies are dropped. ok is false once every level is empty.
func (m merger) next() (s level, src int, ok bool) {
	best, second := -1, -1 // the smallest head, newest on ties; the next smallest
	for i, lv := range m {
		switch {
		case len(lv.keys) == 0:
		case best < 0 || lv.keys[0] < m[best].keys[0]:
			best, second = i, best
		case second < 0 || lv.keys[0] < m[second].keys[0]:
			second = i
		}
	}
	if best < 0 {
		return level{}, 0, false
	}
	s = m[best]
	j := len(s.keys)
	if second >= 0 {
		head := m[second].keys[0]
		if s.keys[0] == head {
			for i, lv := range m {
				if len(lv.keys) > 0 && lv.keys[0] == head {
					m[i] = lv.slice(1, len(lv.keys))
				}
			}
			return s.slice(0, 1), best, true
		}
		j, _ = slices.BinarySearch(s.keys, head)
	}
	m[best] = s.slice(j, len(s.keys))
	return s.slice(0, j), best, true
}

// Len reports an upper bound on distinct keys (memtable + run entries).
func (l *LSM) Len() int {
	n := len(l.memtable.keys)
	for _, r := range l.runs {
		n += len(r.keys)
	}
	return n
}

// Stats reports operation counters.
func (l *LSM) Stats() (gets, scans, puts, flushes, compactions uint64) {
	return l.gets, l.scans, l.puts, l.flushes, l.compactions
}
