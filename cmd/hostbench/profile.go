package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// A minimal decoder for the pprof profile.proto format that
// runtime/pprof writes: gzip around a protobuf message. It keeps only
// what the layer fold needs — sample types, samples, locations with their
// inlined lines, functions and the string table — and skips every other
// field by wire type.

type profile struct {
	sampleTypes []string
	samples     []protoSample
	locations   map[uint64][]uint64 // location id -> function ids, innermost first
	functions   map[uint64]string   // function id -> name
}

type protoSample struct {
	locations []uint64 // leaf first
	values    []int64
}

// parseProfile decodes a profile, gzip-compressed or not.
func parseProfile(data []byte) (*profile, error) {
	if len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
		if data, err = io.ReadAll(zr); err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
	}
	p := &profile{locations: map[uint64][]uint64{}, functions: map[uint64]string{}}
	var strs []string
	var typeIdx []uint64
	type fnName struct{ id, name uint64 }
	var fnNames []fnName
	err := eachField(data, func(f field) error {
		switch f.num {
		case 1: // sample_type: ValueType{type = 1, unit = 2}
			return eachField(f.data, func(g field) error {
				if g.num == 1 {
					typeIdx = append(typeIdx, g.v)
				}
				return nil
			})
		case 2:
			var s protoSample
			err := eachField(f.data, func(g field) error {
				switch g.num {
				case 1:
					return g.uints(func(v uint64) { s.locations = append(s.locations, v) })
				case 2:
					return g.uints(func(v uint64) { s.values = append(s.values, int64(v)) })
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case 4: // location: id = 1, line = 4 (Line{function_id = 1})
			var id uint64
			var fns []uint64
			err := eachField(f.data, func(g field) error {
				switch g.num {
				case 1:
					id = g.v
				case 4:
					return eachField(g.data, func(h field) error {
						if h.num == 1 {
							fns = append(fns, h.v)
						}
						return nil
					})
				}
				return nil
			})
			p.locations[id] = fns
			return err
		case 5: // function: id = 1, name = 2
			var fn fnName
			err := eachField(f.data, func(g field) error {
				switch g.num {
				case 1:
					fn.id = g.v
				case 2:
					fn.name = g.v
				}
				return nil
			})
			fnNames = append(fnNames, fn)
			return err
		case 6:
			strs = append(strs, string(f.data))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	str := func(i uint64) (string, error) {
		if i >= uint64(len(strs)) {
			return "", fmt.Errorf("profile: string index %d out of range", i)
		}
		return strs[i], nil
	}
	for _, i := range typeIdx {
		s, err := str(i)
		if err != nil {
			return nil, err
		}
		p.sampleTypes = append(p.sampleTypes, s)
	}
	for _, fn := range fnNames {
		s, err := str(fn.name)
		if err != nil {
			return nil, err
		}
		p.functions[fn.id] = s
	}
	return p, nil
}

// field is one decoded protobuf field: v for varint and fixed-width wire
// types, data for length-delimited ones.
type field struct {
	num, wire int
	v         uint64
	data      []byte
}

// uints calls fn for each integer of a repeated field, packed or not.
func (f field) uints(fn func(uint64)) error {
	if f.wire != 2 {
		fn(f.v)
		return nil
	}
	for b := f.data; len(b) > 0; {
		v, n := varint(b)
		if n <= 0 {
			return errors.New("profile: bad packed varint")
		}
		fn(v)
		b = b[n:]
	}
	return nil
}

// varint decodes a base-128 varint, returning the value and its length
// (0 when b ends mid-varint or the varint overflows 64 bits).
func varint(b []byte) (uint64, int) {
	var v uint64
	for i := 0; i < len(b) && i < 10; i++ {
		v |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return v, i + 1
		}
	}
	return 0, 0
}

// eachField calls fn for every field of a protobuf message.
func eachField(b []byte, fn func(field) error) error {
	for len(b) > 0 {
		key, n := varint(b)
		if n == 0 {
			return errors.New("profile: bad field key")
		}
		b = b[n:]
		f := field{num: int(key >> 3), wire: int(key & 7)}
		switch f.wire {
		case 0:
			if f.v, n = varint(b); n == 0 {
				return errors.New("profile: bad varint")
			}
		case 1, 5:
			n = 8
			if f.wire == 5 {
				n = 4
			}
			if len(b) < n {
				return errors.New("profile: truncated fixed-width field")
			}
			for i := n - 1; i >= 0; i-- {
				f.v = f.v<<8 | uint64(b[i])
			}
		case 2:
			size, m := varint(b)
			if m == 0 || size > uint64(len(b)-m) {
				return errors.New("profile: bad length-delimited field")
			}
			f.data = b[m : m+int(size)]
			n = m + int(size)
		default:
			return fmt.Errorf("profile: unsupported wire type %d", f.wire)
		}
		b = b[n:]
		if err := fn(f); err != nil {
			return err
		}
	}
	return nil
}

// valueIndex finds the sample value slot of the named sample type.
func (p *profile) valueIndex(typ string) (int, error) {
	for i, t := range p.sampleTypes {
		if t == typ {
			return i, nil
		}
	}
	return 0, fmt.Errorf("profile has no %q samples (types %v)", typ, p.sampleTypes)
}

// frames lists a sample's function names, innermost first: locations
// run leaf to root, and a location's lines run from the innermost
// inlined function out to the function it was inlined into.
func (p *profile) frames(s protoSample) []string {
	var out []string
	for _, loc := range s.locations {
		for _, fn := range p.locations[loc] {
			out = append(out, p.functions[fn])
		}
	}
	return out
}

// ---- the layer fold ----

// layers lists the fold's layers in report order: the simulator's
// modules, the benchmark itself, and the Go runtime split in two.
var layers = []string{
	"simtime", "hw", "uintrsim", "core", "policy", "ksched", "proc", "netsim",
	"loadgen", "apps", "kvstore", "trace", "obs", "bench", "hostbench",
	"runtime.gc", "runtime.sched",
}

// layerPackages maps package paths to layers; a package also covers its
// subpackages, and the longest match wins. Helper modules (det, stats,
// rng, cycles) are absent, so their time counts toward their caller.
var layerPackages = map[string]string{
	"skyloft/internal/simtime":      "simtime",
	"skyloft/internal/hw":           "hw",
	"skyloft/internal/uintrsim":     "uintrsim",
	"skyloft/internal/core":         "core",
	"skyloft/internal/kmod":         "core",
	"skyloft/internal/shm":          "core",
	"skyloft/internal/sched":        "core",
	"skyloft/internal/policy":       "policy",
	"skyloft/internal/ksched":       "ksched",
	"skyloft/internal/baseline":     "ksched",
	"skyloft/internal/proc":         "proc",
	"skyloft/internal/netsim":       "netsim",
	"skyloft/internal/loadgen":      "loadgen",
	"skyloft/internal/apps":         "apps",
	"skyloft/internal/apps/kvstore": "kvstore",
	"skyloft/internal/trace":        "trace",
	"skyloft/internal/obs":          "obs",
	"skyloft/internal/bench":        "bench",
	"main":                          "hostbench",
}

// funcPackage extracts the package path from a symbol name such as
// "skyloft/internal/hw.(*Core).Exec" or "main.run.func1".
func funcPackage(name string) string {
	if i := strings.IndexByte(name, '['); i >= 0 {
		name = name[:i] // type arguments may hold further paths
	}
	slash := strings.LastIndexByte(name, '/') + 1
	if dot := strings.IndexByte(name[slash:], '.'); dot >= 0 {
		return name[:slash+dot]
	}
	return name
}

// layerOf reports the layer a function belongs to, or "" for helper,
// runtime and standard-library functions.
func layerOf(fn string) string {
	for pkg := funcPackage(fn); pkg != ""; {
		if l, ok := layerPackages[pkg]; ok {
			return l
		}
		i := strings.LastIndexByte(pkg, '/')
		if i < 0 {
			return ""
		}
		pkg = pkg[:i]
	}
	return ""
}

// gcRoots are the runtime functions at the root of garbage-collector
// work that no layer asked for: background mark workers, sweepers,
// the scavenger, forced collections, and the profiler's _GC pseudo-frame.
var gcRoots = []string{
	"runtime.gcBgMarkWorker", "runtime.bgsweep", "runtime.bgscavenge",
	"runtime.GC", "runtime.gcStart", "runtime.gcMarkDone", "runtime.gcMarkTermination",
	"runtime._GC",
}

// classify assigns a stack (innermost first) to the innermost frame's
// layer. A stack with no layer frame is runtime work: garbage collection
// when a GC root is on it, scheduling and everything else otherwise. An
// empty stack is unattributed ("").
func classify(frames []string) string {
	for _, f := range frames {
		if l := layerOf(f); l != "" {
			return l
		}
	}
	if len(frames) == 0 {
		return ""
	}
	for _, f := range frames {
		for _, root := range gcRoots {
			if f == root {
				return "runtime.gc"
			}
		}
	}
	return "runtime.sched"
}

// fold sums the typ sample values of p by layer. total includes
// unattributed samples.
func fold(p *profile, typ string) (byLayer map[string]int64, total int64, err error) {
	idx, err := p.valueIndex(typ)
	if err != nil {
		return nil, 0, err
	}
	byLayer = map[string]int64{}
	for _, s := range p.samples {
		if idx >= len(s.values) {
			return nil, 0, fmt.Errorf("profile: sample has %d values, want > %d", len(s.values), idx)
		}
		v := s.values[idx]
		total += v
		if l := classify(p.frames(s)); l != "" {
			byLayer[l] += v
		}
	}
	return byLayer, total, nil
}
