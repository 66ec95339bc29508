// Package kvstore implements the two storage engines behind the paper's
// real-world applications (§5.3): a sharded in-memory hash store standing
// in for Memcached, and a small log-structured merge store standing in for
// RocksDB. The LSM keeps each level, the memtable and every immutable
// sorted run, as a pair of sorted key and value columns, and serves range
// scans as one k-way merge that copies whole stretches of one level at a
// time, without sorting anything per request. A scan whose rows all come
// from one run returns a window of that run's value column instead of a
// copy, so callers must not write a Scan result's elements; appending to
// one is safe. Both are real data structures — requests execute genuine
// lookups, inserts and range scans — while their CPU demand in virtual
// time comes from the measured service-time distributions the paper
// reports.
package kvstore

import "fmt"

// Memcache is a sharded open-addressing string store, the light-tailed
// workload server (USR mix: 99.8% GET / 0.2% SET).
type Memcache struct {
	shards []map[string]string
	hits   uint64
	misses uint64
	sets   uint64
}

// NewMemcache creates a store with the given shard count.
func NewMemcache(shards int) *Memcache {
	if shards <= 0 {
		shards = 16
	}
	m := &Memcache{shards: make([]map[string]string, shards)}
	for i := range m.shards {
		m.shards[i] = make(map[string]string)
	}
	return m
}

func fnv1a(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

func (m *Memcache) shard(key string) map[string]string {
	return m.shards[fnv1a(key)%uint64(len(m.shards))]
}

// Get looks a key up.
func (m *Memcache) Get(key string) (string, bool) {
	v, ok := m.shard(key)[key]
	if ok {
		m.hits++
	} else {
		m.misses++
	}
	return v, ok
}

// Set stores a value.
func (m *Memcache) Set(key, value string) {
	m.sets++
	m.shard(key)[key] = value
}

// Delete removes a key, reporting whether it existed.
func (m *Memcache) Delete(key string) bool {
	s := m.shard(key)
	if _, ok := s[key]; !ok {
		return false
	}
	delete(s, key)
	return true
}

// Len reports the number of stored keys.
func (m *Memcache) Len() int {
	n := 0
	for _, s := range m.shards {
		n += len(s)
	}
	return n
}

// Stats reports hits, misses and sets.
func (m *Memcache) Stats() (hits, misses, sets uint64) { return m.hits, m.misses, m.sets }

// Preload fills the store with n sequential keys ("key-%d").
func (m *Memcache) Preload(n int) {
	for i := 0; i < n; i++ {
		m.Set(fmt.Sprintf("key-%d", i), fmt.Sprintf("value-%d", i))
	}
}
