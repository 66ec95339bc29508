package bench

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"testing"

	"skyloft/internal/baseline/linuxsim"
	"skyloft/internal/simtime"
	"skyloft/internal/stats"
)

// histDigest folds a wakeup histogram, its count and every non-empty
// bucket, into an FNV-1a digest.
func histDigest(h *stats.Hist) uint64 {
	d := fnv.New64a()
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		d.Write(b[:])
	}
	put(h.Count())
	h.Buckets(func(lower, _ simtime.Duration, count uint64) {
		put(uint64(lower))
		put(count)
	})
	return d.Sum64()
}

// fig5QuickPins holds the wakeup-histogram digest of every cell of the
// quick Fig. 5 grid at seed 1, keyed "workers/scheduler". The Linux and
// Skyloft columns run the same policy code (policy/cfs, policy/eevdf), so
// a change to a shared policy shows up here in both engines' cells.
var fig5QuickPins = map[string]uint64{
	"16/linux-rr":          0x22e5c01b2afc0a48,
	"16/linux-cfs":         0x22e5c01b2afc0a48,
	"16/linux-cfs-tuned":   0x22e5c01b2afc0a48,
	"16/linux-eevdf":       0x22e5c01b2afc0a48,
	"16/linux-eevdf-tuned": 0x22e5c01b2afc0a48,
	"16/skyloft-rr":        0x42fc53bb881cd760,
	"16/skyloft-cfs":       0x42fc53bb881cd760,
	"16/skyloft-eevdf":     0x42fc53bb881cd760,
	"32/linux-rr":          0xb0a46942af3ace43,
	"32/linux-cfs":         0xed1e2871bac98caf,
	"32/linux-cfs-tuned":   0x62b62f3a421324a2,
	"32/linux-eevdf":       0xdb8ff7ef750ccf8c,
	"32/linux-eevdf-tuned": 0x01b0d1b35f564940,
	"32/skyloft-rr":        0x1f350780ba813dab,
	"32/skyloft-cfs":       0xeb5a499f7c2dab3f,
	"32/skyloft-eevdf":     0x36cfaf8fb79f8110,
	"48/linux-rr":          0xa7a5066f10080524,
	"48/linux-cfs":         0x8e5c65b9e9c9df7f,
	"48/linux-cfs-tuned":   0xc86fed39090b7e0d,
	"48/linux-eevdf":       0xd27c65ef4a35eaaf,
	"48/linux-eevdf-tuned": 0xd7585862a144b3ca,
	"48/skyloft-rr":        0x50b6bb127c0c5196,
	"48/skyloft-cfs":       0xd0bd7a60828a9cc3,
	"48/skyloft-eevdf":     0x056ff0fb74456f25,
}

// TestFig5QuickGridPinned runs every cell of the quick Fig. 5 grid and
// compares its wakeup histogram with the pinned digest. The p99/p50
// tables and BENCH_skyloft.json see only a few quantiles of a few cells;
// this sees every bucket of every cell.
func TestFig5QuickGridPinned(t *testing.T) {
	type cell struct {
		key string
		run func() SchbenchResult
	}
	var cells []cell
	for _, w := range schbenchQuick.Workers {
		w := w
		for _, v := range linuxsim.Variants() {
			v := v
			cells = append(cells, cell{fmt.Sprintf("%d/%s", w, v), func() SchbenchResult {
				return SchbenchLinux(v, w, schbenchQuick.Reqs, 1)
			}})
		}
		for _, s := range SkyloftScheds() {
			s := s
			cells = append(cells, cell{fmt.Sprintf("%d/%s", w, s), func() SchbenchResult {
				return SchbenchSkyloft(s, 0, w, schbenchQuick.Reqs, 1)
			}})
		}
	}
	results := Sweep(cells, func(c cell) SchbenchResult { return c.run() })
	for i, c := range cells {
		got := histDigest(results[i].Hist)
		if want, ok := fig5QuickPins[c.key]; !ok || got != want {
			t.Errorf("%q: 0x%016x, // pinned 0x%016x (n=%d p99=%v)",
				c.key, got, want, results[i].Hist.Count(), results[i].Hist.P99())
		}
	}
}
