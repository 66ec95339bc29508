// Package stats provides the latency histograms, percentile extraction, and
// derived metrics (throughput, slowdown) that the benchmark harness uses to
// regenerate the paper's tables and figures.
package stats

import (
	"fmt"
	"math"
	"math/bits"

	"skyloft/internal/simtime"
)

// subBucketBits controls histogram resolution: each power-of-two magnitude
// is split into 2^subBucketBits linear sub-buckets, giving a worst-case
// relative quantisation error of 2^-subBucketBits (≈1.6% here) — the same
// scheme HdrHistogram and schbench use.
const subBucketBits = 6

const subBuckets = 1 << subBucketBits

// Hist is a log-linear histogram of simtime durations from 1 ns up to ~146
// hours. The zero value is not usable; call NewHist.
type Hist struct {
	counts []uint64
	n      uint64
	sum    float64
	min    simtime.Duration
	max    simtime.Duration
}

// NewHist returns an empty histogram.
func NewHist() *Hist {
	return &Hist{
		counts: make([]uint64, (64-subBucketBits)*subBuckets),
		min:    simtime.Infinity,
	}
}

func bucketOf(v simtime.Duration) int {
	if v < 0 {
		v = 0
	}
	u := uint64(v)
	if u < subBuckets {
		return int(u)
	}
	mag := bits.Len64(u) - 1 - subBucketBits // power-of-two group above the linear range
	sub := u >> uint(mag)                    // in [subBuckets, 2*subBuckets)
	return int(mag)*subBuckets + int(sub)
}

// lowerBound reports the smallest duration mapping to bucket i.
func lowerBound(i int) simtime.Duration {
	mag := i / subBuckets
	sub := i % subBuckets
	if mag == 0 {
		return simtime.Duration(sub)
	}
	return simtime.Duration(uint64(sub+subBuckets) << uint(mag-1))
}

// Record adds one observation.
func (h *Hist) Record(v simtime.Duration) {
	if v < 0 {
		v = 0
	}
	h.counts[bucketOf(v)]++
	h.n++
	h.sum += float64(v)
	if v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
}

// RecordN adds count observations of value v.
func (h *Hist) RecordN(v simtime.Duration, count uint64) {
	if count == 0 {
		return
	}
	if v < 0 {
		v = 0
	}
	h.counts[bucketOf(v)] += count
	h.n += count
	h.sum += float64(v) * float64(count)
	if v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
}

// Merge adds all of other's observations into h.
func (h *Hist) Merge(other *Hist) {
	for i, c := range other.counts {
		h.counts[i] += c
	}
	h.n += other.n
	h.sum += other.sum
	if other.min < h.min {
		h.min = other.min
	}
	if other.max > h.max {
		h.max = other.max
	}
}

// Count reports the number of observations.
func (h *Hist) Count() uint64 { return h.n }

// Mean reports the arithmetic mean, or 0 if empty.
func (h *Hist) Mean() simtime.Duration {
	if h.n == 0 {
		return 0
	}
	return simtime.Duration(h.sum / float64(h.n))
}

// Min reports the smallest observation, or 0 if empty.
func (h *Hist) Min() simtime.Duration {
	if h.n == 0 {
		return 0
	}
	return h.min
}

// Max reports the largest observation, or 0 if empty.
func (h *Hist) Max() simtime.Duration {
	if h.n == 0 {
		return 0
	}
	return h.max
}

// Quantile reports an upper bound on the q-quantile (0 <= q <= 1) with the
// histogram's ~1.6% resolution. Empty histograms report 0.
func (h *Hist) Quantile(q float64) simtime.Duration {
	if h.n == 0 {
		return 0
	}
	if q <= 0 {
		return h.min
	}
	if q >= 1 {
		return h.max
	}
	target := uint64(math.Ceil(q * float64(h.n)))
	if target == 0 {
		target = 1
	}
	var cum uint64
	for i, c := range h.counts {
		cum += c
		if cum >= target {
			// Upper edge of bucket i, clamped to the observed max.
			upper := lowerBound(i+1) - 1
			if upper > h.max {
				upper = h.max
			}
			if upper < h.min {
				upper = h.min
			}
			return upper
		}
	}
	return h.max
}

// QuantileFloor reports the inclusive lower edge of the bucket the
// q-quantile lands in, clamped to the observed min. Selecting samples with
// v >= QuantileFloor(q) always keeps the quantile bucket itself — a
// guarantee the upper-edge estimate of Quantile cannot make (every sample
// in the top bucket can sit below that bucket's upper edge).
func (h *Hist) QuantileFloor(q float64) simtime.Duration {
	if h.n == 0 {
		return 0
	}
	if q <= 0 {
		return h.min
	}
	if q >= 1 {
		q = 1
	}
	target := uint64(math.Ceil(q * float64(h.n)))
	if target == 0 {
		target = 1
	}
	var cum uint64
	for i, c := range h.counts {
		cum += c
		if cum >= target {
			lower := lowerBound(i)
			if lower < h.min {
				lower = h.min
			}
			return lower
		}
	}
	return h.max
}

// P50, P99, P999 are convenience accessors for common tail quantiles.
func (h *Hist) P50() simtime.Duration  { return h.Quantile(0.50) }
func (h *Hist) P99() simtime.Duration  { return h.Quantile(0.99) }
func (h *Hist) P999() simtime.Duration { return h.Quantile(0.999) }

// Buckets calls fn for every non-empty bucket in ascending value order with
// the bucket's inclusive lower bound, inclusive upper bound, and count. The
// doctor's distribution detectors and CDF dumps are built on this.
func (h *Hist) Buckets(fn func(lower, upper simtime.Duration, count uint64)) {
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		fn(lowerBound(i), lowerBound(i+1)-1, c)
	}
}

// Reset clears all observations.
func (h *Hist) Reset() {
	for i := range h.counts {
		h.counts[i] = 0
	}
	h.n = 0
	h.sum = 0
	h.min = simtime.Infinity
	h.max = 0
}

func (h *Hist) String() string {
	return fmt.Sprintf("n=%d mean=%v p50=%v p99=%v p99.9=%v max=%v",
		h.n, h.Mean(), h.P50(), h.P99(), h.P999(), h.Max())
}
