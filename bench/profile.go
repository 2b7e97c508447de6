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

// layers is the per-layer budget axis: one entry per teledrive package
// on the simulation path, then the runtime's garbage collector, then
// everything with no teledrive frame on its stack (scheduler, syscalls
// outside teledrive callers, the bench's own code).
var layers = []string{
	"simclock", "world", "geom", "vehicle", "scenario", "sensors", "netem",
	"transport", "bridge", "driver", "trace", "session", "core", "campaign",
	"search", "hub", "gc", "other",
}

// layerIndex maps a layer name to its slot in per-layer arrays.
var layerIndex = func() map[string]int {
	m := make(map[string]int, len(layers))
	for i, l := range layers {
		m[l] = i
	}
	return m
}()

// folded charges teledrive packages that are not layers of their own to
// the layer that drives them.
var folded = map[string]string{
	"faultinject":   "netem",    // POI fault injection installs netem rules
	"rds":           "session",  // rds composes the session stack
	"telemetry":     "session",  // instruments ride the session spine
	"metrics":       "core",     // TTC/SRR analysis behind core.AnalyzeRun
	"stats":         "campaign", // campaign significance tests
	"report":        "campaign", // campaign report rendering
	"questionnaire": "campaign",
	"modelvehicle":  "vehicle",
}

// gcFrames mark a stack as garbage-collector work wherever it sits.
var gcFrames = []string{
	"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.bgsweep",
	"runtime.bgscavenge", "runtime.gcStart", "runtime.gcMarkDone",
	"runtime.gcMarkTermination",
}

const teledrivePrefix = "teledrive/internal/"

// layerOf charges one stack (function names, innermost first) to a
// layer: GC work to gc, otherwise the innermost teledrive frame, so
// stdlib leaves (crc32, memmove, math) count against their teledrive
// caller.
func layerOf(stack []string) int {
	for _, fn := range stack {
		for _, g := range gcFrames {
			if fn == g {
				return layerIndex["gc"]
			}
		}
	}
	for _, fn := range stack {
		rest, ok := strings.CutPrefix(fn, teledrivePrefix)
		if !ok {
			continue
		}
		pkg := rest
		if i := strings.IndexAny(pkg, "./"); i >= 0 {
			pkg = pkg[:i]
		}
		if f, ok := folded[pkg]; ok {
			pkg = f
		}
		if i, ok := layerIndex[pkg]; ok {
			return i
		}
		return layerIndex["other"]
	}
	return layerIndex["other"]
}

// byLayer sums one sample value of a gzipped pprof profile per layer.
// valueIdx selects the sample value (CPU profiles: 1 = nanoseconds;
// allocs profiles: 0 = allocated objects, 1 = allocated bytes).
func byLayer(gz []byte, valueIdx int) ([]int64, error) {
	p, err := parseProfile(gz)
	if err != nil {
		return nil, err
	}
	out := make([]int64, len(layers))
	var stack []string
	for _, s := range p.samples {
		if valueIdx >= len(s.values) {
			return nil, fmt.Errorf("profile: sample has %d values, want index %d", len(s.values), valueIdx)
		}
		stack = stack[:0]
		for _, loc := range s.locs {
			for _, fid := range p.locations[loc] {
				stack = append(stack, p.strings[p.functions[fid]])
			}
		}
		out[layerOf(stack)] += s.values[valueIdx]
	}
	return out, nil
}

// profile is the subset of the pprof protobuf the layer budget needs.
type profile struct {
	strings   []string
	functions map[uint64]int64    // function id → name string index
	locations map[uint64][]uint64 // location id → function ids, innermost first
	samples   []sample
}

type sample struct {
	locs   []uint64 // leaf first
	values []int64
}

// parseProfile decodes a gzipped profile.proto (github.com/google/pprof
// proto/profile.proto) with a minimal protobuf reader: only samples,
// locations, functions and the string table are kept.
func parseProfile(gz []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	p := &profile{functions: make(map[uint64]int64), locations: make(map[uint64][]uint64)}
	err = eachField(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2:
			var s sample
			err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					s.locs = appendPacked(s.locs, v, b)
				case 2:
					for _, u := range appendPacked(nil, v, b) {
						s.values = append(s.values, int64(u))
					}
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case 4:
			var id uint64
			var fns []uint64
			err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // Line{function_id = 1, line = 2}
					return eachField(b, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locations[id] = fns
			return err
		case 5:
			var id uint64
			var name int64
			err := eachField(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			p.functions[id] = name
			return err
		case 6:
			p.strings = append(p.strings, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for id, name := range p.functions {
		if name < 0 || name >= int64(len(p.strings)) {
			return nil, fmt.Errorf("profile: function %d names string %d of %d", id, name, len(p.strings))
		}
	}
	for _, s := range p.samples {
		for _, loc := range s.locs {
			fns, ok := p.locations[loc]
			if !ok {
				return nil, fmt.Errorf("profile: sample references unknown location %d", loc)
			}
			for _, f := range fns {
				if _, ok := p.functions[f]; !ok {
					return nil, fmt.Errorf("profile: location %d references unknown function %d", loc, f)
				}
			}
		}
	}
	return p, nil
}

var errTruncated = errors.New("profile: truncated protobuf")

// eachField walks one protobuf message. Varint fields arrive as v,
// length-delimited fields as b; fixed-width fields are skipped.
func eachField(msg []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errTruncated
		}
		msg = msg[n:]
		num, wire := int(key>>3), key&7
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(msg)
			if n <= 0 {
				return errTruncated
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return errTruncated
			}
			msg = msg[8:]
			continue
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || l > uint64(len(msg)-n) {
				return errTruncated
			}
			b = msg[n : n+int(l)]
			msg = msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return errTruncated
			}
			msg = msg[4:]
			continue
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := fn(num, v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendPacked appends a repeated varint field that arrived either
// unpacked (one varint, b == nil) or packed (b holds the varints).
func appendPacked(dst []uint64, v uint64, b []byte) []uint64 {
	if b == nil {
		return append(dst, v)
	}
	for len(b) > 0 {
		u, n := binary.Uvarint(b)
		if n <= 0 {
			return dst
		}
		dst = append(dst, u)
		b = b[n:]
	}
	return dst
}
