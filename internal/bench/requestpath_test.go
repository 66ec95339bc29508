package bench

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"skyloft/internal/apps/server"
	"skyloft/internal/simtime"
)

// pointDigest folds every field of a load point, the float bits and Done,
// into an FNV-1a digest.
func pointDigest(p LoadPoint) uint64 {
	d := fnv.New64a()
	var b [8]byte
	for _, v := range []uint64{
		math.Float64bits(p.Offered), math.Float64bits(p.Throughput),
		math.Float64bits(p.P50), math.Float64bits(p.P99),
		math.Float64bits(p.P999Slow), math.Float64bits(p.BEShare), p.Done,
	} {
		binary.LittleEndian.PutUint64(b[:], v)
		d.Write(b[:])
	}
	return d.Sum64()
}

// requestPathPins holds the load-point digest of every request-path cell at
// seed 1, keyed "figure/system/load": each Fig. 8a system and Fig. 8b
// variant (the NIC path, server.NewThreadPerRequest) and Fig. 7a's
// core-engine systems (server.FeedDirect), at two loads over a short
// window.
var requestPathPins = map[string]uint64{
	"8a/skyloft/0.50":            0x3b3fedae1c84c960,
	"8a/shenango/0.50":           0x27dfa0a95ea8783a,
	"8a/skyloft/0.85":            0xdd60104e6cd2c9f0,
	"8a/shenango/0.85":           0x96a0655aa19eed24,
	"8b/skyloft-5us/0.50":        0x53ac191f7b7998e0,
	"8b/skyloft-15us/0.50":       0xf3771e39f6e6c615,
	"8b/skyloft-30us/0.50":       0xfc9dc8593afd3a2a,
	"8b/skyloft-utimer-5us/0.50": 0xae010c4cb1763740,
	"8b/shenango/0.50":           0xac99b372f06e1079,
	"8b/skyloft-5us/0.85":        0x462f1547f246512f,
	"8b/skyloft-15us/0.85":       0xb56a0775378b3712,
	"8b/skyloft-30us/0.85":       0xc57ae79f410f5782,
	"8b/skyloft-utimer-5us/0.85": 0x1013eba5f9c8df0e,
	"8b/shenango/0.85":           0xc475d14e35ce8e0e,
	"7a/skyloft/0.50":            0x1a2dd15acc9a0a63,
	"7a/shinjuku/0.50":           0x2144406aa502220f,
	"7a/ghost/0.50":              0xdff8e45a07eba840,
	"7a/skyloft/0.85":            0xa44924ef0d91b838,
	"7a/shinjuku/0.85":           0xf1348e9be0b55b94,
	"7a/ghost/0.85":              0xbc3dc7110ba087f4,
}

// TestRequestPathPinned runs every request-path cell and compares its load
// point with the pinned digest. BENCH_skyloft.json holds no Fig. 8 number
// and the report diff forgives small drifts, so this is where a change to
// how requests are served must show that no simulated output moved.
func TestRequestPathPinned(t *testing.T) {
	const warmup, dur = 5 * simtime.Millisecond, 20 * simtime.Millisecond
	loads := []float64{0.5, 0.85}
	type cell struct {
		key string
		run func() LoadPoint
	}
	var cells []cell
	for _, f := range loads {
		f := f
		for _, s := range []NetSystem{NetSkyloft, NetShenango} {
			s, rate := s, f*Capacity(Fig8aWorkers, server.USRClasses())
			cells = append(cells, cell{fmt.Sprintf("8a/%s/%.2f", s, f), func() LoadPoint {
				return RunNetApp(NetConfig{System: s, App: "memcached", Workers: Fig8aWorkers,
					Rate: rate, Warmup: warmup, Duration: dur, Seed: 1})
			}})
		}
		for _, v := range []struct {
			name    string
			sys     NetSystem
			quantum simtime.Duration
			workers int
		}{
			{"skyloft-5us", NetSkyloftPre, 5 * simtime.Microsecond, Fig8bWorkers},
			{"skyloft-15us", NetSkyloftPre, 15 * simtime.Microsecond, Fig8bWorkers},
			{"skyloft-30us", NetSkyloftPre, 30 * simtime.Microsecond, Fig8bWorkers},
			{"skyloft-utimer-5us", NetSkyloftUtimer, 5 * simtime.Microsecond, Fig8bWorkers - 1},
			{"shenango", NetShenango, 0, Fig8bWorkers},
		} {
			v, rate := v, f*Capacity(Fig8bWorkers, server.RocksDBClasses())
			cells = append(cells, cell{fmt.Sprintf("8b/%s/%.2f", v.name, f), func() LoadPoint {
				return RunNetApp(NetConfig{System: v.sys, App: "rocksdb", Workers: v.workers,
					Quantum: v.quantum, Rate: rate, Warmup: warmup, Duration: dur, Seed: 1})
			}})
		}
		for _, s := range []SynthSystem{SynthSkyloft, SynthShinjuku, SynthGhost} {
			s, rate := s, f*Capacity(Fig7Workers, server.DispersiveClasses())
			cells = append(cells, cell{fmt.Sprintf("7a/%s/%.2f", s, f), func() LoadPoint {
				return RunSynthetic(SynthConfig{System: s, Quantum: fig7Quantum,
					Rate: rate, Warmup: warmup, Duration: dur, Seed: 1})
			}})
		}
	}
	points := Sweep(cells, func(c cell) LoadPoint { return c.run() })
	for i, c := range cells {
		p := points[i]
		if p.Done == 0 {
			t.Errorf("%s: no request completed", c.key)
		}
		got := pointDigest(p)
		if want, ok := requestPathPins[c.key]; !ok || got != want {
			t.Errorf("%q: 0x%016x, // pinned 0x%016x (done=%d p99=%v)", c.key, got, want, p.Done, p.P99)
		}
	}
}
