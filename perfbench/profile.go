package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// This file reads the CPU profile runtime/pprof writes (gzipped
// profile.proto) and attributes every sample to one row of the
// per-package table. The standard library has no public profile parser,
// so the few messages the attribution needs are decoded here.

// cpuSample is one profile sample: its stack as function names, leaf
// first (inlined frames innermost first), its CPU time and its labels.
type cpuSample struct {
	stack  []string
	cpuNs  int64
	labels map[string]string
}

// parseCPUProfile decodes a gzipped CPU profile into samples.
func parseCPUProfile(gz []byte) ([]cpuSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}

	type rawSample struct {
		locs   []uint64
		values []int64
		labels [][2]int64 // key, str (string-table indices)
	}
	var (
		strs        []string
		sampleTypes []int64 // type string index per value slot
		samples     []rawSample
		locFuncs    = map[uint64][]uint64{} // location id -> function ids
		funcNames   = map[uint64]int64{}    // function id -> name index
	)
	err = fields(raw, func(num int, f field) error {
		switch num {
		case 1: // sample_type: ValueType{type=1, unit=2}
			var typ int64
			err := fields(f.bytes, func(n int, g field) error {
				if n == 1 {
					typ = int64(g.varint)
				}
				return nil
			})
			sampleTypes = append(sampleTypes, typ)
			return err
		case 2: // sample: {location_id=1, value=2, label=3}
			var s rawSample
			err := fields(f.bytes, func(n int, g field) error {
				switch n {
				case 1:
					return g.uints(func(v uint64) { s.locs = append(s.locs, v) })
				case 2:
					return g.uints(func(v uint64) { s.values = append(s.values, int64(v)) })
				case 3:
					var kv [2]int64
					err := fields(g.bytes, func(n int, h field) error {
						if n == 1 || n == 2 {
							kv[n-1] = int64(h.varint)
						}
						return nil
					})
					s.labels = append(s.labels, kv)
					return err
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location: {id=1, line=4: Line{function_id=1}}
			var id uint64
			var fns []uint64
			err := fields(f.bytes, func(n int, g field) error {
				switch n {
				case 1:
					id = g.varint
				case 4:
					return fields(g.bytes, func(n int, h field) error {
						if n == 1 {
							fns = append(fns, h.varint)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5: // function: {id=1, name=2}
			var id uint64
			var name int64
			err := fields(f.bytes, func(n int, g field) error {
				switch n {
				case 1:
					id = g.varint
				case 2:
					name = int64(g.varint)
				}
				return nil
			})
			funcNames[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(f.bytes))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	str := func(i int64) string {
		if i < 0 || int(i) >= len(strs) {
			return ""
		}
		return strs[i]
	}
	cpuSlot := -1
	for i, t := range sampleTypes {
		if str(t) == "cpu" {
			cpuSlot = i
		}
	}
	if cpuSlot < 0 {
		return nil, errors.New("profile: no cpu sample type")
	}
	out := make([]cpuSample, 0, len(samples))
	for _, s := range samples {
		if cpuSlot >= len(s.values) {
			return nil, errors.New("profile: sample without a cpu value")
		}
		cs := cpuSample{cpuNs: s.values[cpuSlot]}
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				cs.stack = append(cs.stack, str(funcNames[fn]))
			}
		}
		if len(s.labels) > 0 {
			cs.labels = make(map[string]string, len(s.labels))
			for _, kv := range s.labels {
				cs.labels[str(kv[0])] = str(kv[1])
			}
		}
		out = append(out, cs)
	}
	return out, nil
}

// field is one decoded protobuf field: varint for wire types 0, 1 and
// 5, bytes for wire type 2.
type field struct {
	wire   int
	varint uint64
	bytes  []byte
}

// uints yields the field's unsigned values, packed or not.
func (f field) uints(yield func(uint64)) error {
	if f.wire != 2 {
		yield(f.varint)
		return nil
	}
	b := f.bytes
	for len(b) > 0 {
		v, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad packed varint")
		}
		yield(v)
		b = b[n:]
	}
	return nil
}

// fields walks the fields of one protobuf message.
func fields(b []byte, visit func(num int, f field) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		b = b[n:]
		f := field{wire: int(key & 7)}
		switch f.wire {
		case 0:
			f.varint, n = binary.Uvarint(b)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("profile: short fixed64")
			}
			f.varint = binary.LittleEndian.Uint64(b)
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("profile: bad length")
			}
			f.bytes = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("profile: short fixed32")
			}
			f.varint = uint64(binary.LittleEndian.Uint32(b))
			b = b[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", f.wire)
		}
		if err := visit(int(key>>3), f); err != nil {
			return err
		}
	}
	return nil
}

// repoPrefix is the import-path prefix of the repository's packages.
const repoPrefix = "ssdtrain/internal/"

// rowOf attributes one sample's stack to a row of the per-package table:
//   - gc: a GC worker, an assist, or the background sweeper/scavenger
//     anywhere on the stack;
//   - otherwise the innermost frame that belongs to a repository
//     package, encoding/json ("json") or the net/http stack ("http").
//     Runtime and other standard-library frames (maps, hashing,
//     allocation, sorting, formatting) pass through to their nearest
//     such caller;
//   - other: the benchmark's own code, the scheduler and anything with
//     no such frame.
//
// Repository packages without a row of their own also count as other.
func rowOf(stack []string, rows map[string]bool) string {
	for _, fn := range stack {
		if isGC(fn) {
			return "gc"
		}
	}
	for _, fn := range stack {
		switch {
		case strings.HasPrefix(fn, repoPrefix):
			pkg := fn[len(repoPrefix):]
			if i := strings.IndexAny(pkg, "./"); i >= 0 {
				pkg = pkg[:i]
			}
			if rows[pkg] {
				return pkg
			}
			return "other"
		case strings.HasPrefix(fn, "encoding/json."):
			return "json"
		case strings.HasPrefix(fn, "net/http.") || strings.HasPrefix(fn, "net/http/") ||
			strings.HasPrefix(fn, "net.") || strings.HasPrefix(fn, "net/textproto.") ||
			strings.HasPrefix(fn, "net/url."):
			return "http"
		case strings.HasPrefix(fn, "main."):
			return "other"
		}
	}
	return "other"
}

// isGC reports whether fn is garbage-collector work: a mark worker or
// assist (runtime.gc*), or background sweeping and scavenging.
func isGC(fn string) bool {
	return strings.HasPrefix(fn, "runtime.gc") ||
		fn == "runtime.bgsweep" || fn == "runtime.bgscavenge" ||
		fn == "runtime.markroot" || fn == "runtime.sweepone"
}
