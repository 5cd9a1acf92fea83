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

// modules are the internal/ packages with a CPU bucket of their own: the
// ones a change is likely to target.
var modules = []string{"sim", "kvm", "guest", "iodev", "snap", "experiment", "metrics"}

// layers are the buckets CPU self time is split into: the modules, the Go
// runtime (malloc, GC, scheduler, maps), and everything else.
var layers = append(modules[:len(modules):len(modules)], "runtime", "other")

// layerOf maps a profiled function name to its layer by the package of
// the function. Internal modules without their own bucket (core, sched,
// hw, workload, trace, analytic), the standard library and the benchmark
// itself count as "other".
func layerOf(fn string) string {
	pkg := packageOf(fn)
	if mod, ok := strings.CutPrefix(pkg, "paratick/internal/"); ok {
		for _, m := range modules {
			if mod == m {
				return m
			}
		}
		return "other"
	}
	if pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/") {
		return "runtime"
	}
	return "other"
}

// packageOf returns the import path part of a fully qualified Go function
// name such as "paratick/internal/sim.(*Engine).Step" or
// "paratick/internal/experiment.runParallel[go.shape.int]".
func packageOf(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i]
	}
	slash := strings.LastIndexByte(fn, '/') + 1
	if dot := strings.IndexByte(fn[slash:], '.'); dot >= 0 {
		return fn[:slash+dot]
	}
	return fn
}

// selfTime decodes a gzipped pprof CPU profile and returns the CPU
// nanoseconds of each layer, attributing every sample to the package of its
// leaf frame (the innermost inlined function at the sampled location).
func selfTime(gz []byte) (map[string]int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	var (
		strs     []string
		funcName = map[uint64]int64{}  // function id -> string index
		locFunc  = map[uint64]uint64{} // location id -> leaf function id
		samples  []sample
	)
	err = fields(raw, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 2: // Sample
			var s sample
			err := fields(b, func(num int, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					s.locs = appendVarints(s.locs, wire, v, b)
				case 2:
					s.values = appendVarints(s.values, wire, v, b)
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // Location
			var id, fn uint64
			haveLine := false
			err := fields(b, func(num int, wire int, v uint64, b []byte) error {
				switch {
				case num == 1:
					id = v
				case num == 4 && !haveLine: // the first Line is the leaf
					haveLine = true
					return fields(b, func(num int, wire int, v uint64, b []byte) error {
						if num == 1 {
							fn = v
						}
						return nil
					})
				}
				return nil
			})
			locFunc[id] = fn
			return err
		case 5: // Function
			var id uint64
			var name int64
			err := fields(b, func(num int, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6: // string table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	out := map[string]int64{}
	for _, s := range samples {
		// CPU profiles carry [sample count, cpu nanoseconds].
		if len(s.locs) == 0 || len(s.values) < 2 {
			continue
		}
		layer := "other"
		if idx := funcName[locFunc[s.locs[0]]]; idx > 0 && idx < int64(len(strs)) {
			layer = layerOf(strs[idx])
		}
		out[layer] += int64(s.values[1])
	}
	return out, nil
}

type sample struct {
	locs, values []uint64
}

// appendVarints appends one repeated integer field, packed or not.
func appendVarints(dst []uint64, wire int, v uint64, b []byte) []uint64 {
	if wire == 0 {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}

// fields walks the top-level fields of one protobuf message, passing each
// varint field's value or each length-delimited field's bytes to visit.
func fields(msg []byte, visit func(num int, wire int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errors.New("bad field key")
		}
		msg = msg[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(msg)
			if n <= 0 {
				return fmt.Errorf("bad varint in field %d", num)
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return fmt.Errorf("short fixed64 in field %d", num)
			}
			v, msg = binary.LittleEndian.Uint64(msg), msg[8:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return fmt.Errorf("bad length in field %d", num)
			}
			b, msg = msg[n:n+int(l)], msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return fmt.Errorf("short fixed32 in field %d", num)
			}
			v, msg = uint64(binary.LittleEndian.Uint32(msg)), msg[4:]
		default:
			return fmt.Errorf("unsupported wire type %d in field %d", wire, num)
		}
		if err := visit(num, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}
