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

// This file decodes a runtime/pprof CPU profile (gzipped protobuf, the
// profile.proto schema) with the standard library alone, and attributes
// each sample's CPU time to the innermost repro/internal package on its
// stack.

const internalPrefix = "repro/internal/"

// cpuProfile is the part of a profile attribution needs.
type cpuProfile struct {
	samples   []cpuSample
	locations map[uint64][]uint64 // location id → function ids, innermost first
	functions map[uint64]string   // function id → name
}

type cpuSample struct {
	locations []uint64 // innermost first
	cpuNs     int64
}

var errTruncated = errors.New("profile: truncated protobuf")

// pbField is one decoded protobuf field: a varint value or a byte slice.
type pbField struct {
	num   int
	wire  int
	v     uint64
	bytes []byte
}

// pbFields splits one protobuf message into its fields.
func pbFields(b []byte) ([]pbField, error) {
	var out []pbField
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return nil, errTruncated
		}
		b = b[n:]
		f := pbField{num: int(key >> 3), wire: int(key & 7)}
		switch f.wire {
		case 0:
			f.v, n = binary.Uvarint(b)
			if n <= 0 {
				return nil, errTruncated
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return nil, errTruncated
			}
			f.v = binary.LittleEndian.Uint64(b)
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return nil, errTruncated
			}
			f.bytes = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return nil, errTruncated
			}
			f.v = uint64(binary.LittleEndian.Uint32(b))
			b = b[4:]
		default:
			return nil, fmt.Errorf("profile: unsupported wire type %d", f.wire)
		}
		out = append(out, f)
	}
	return out, nil
}

// pbUints reads a repeated integer field, packed or not.
func pbUints(f pbField, dst []uint64) ([]uint64, error) {
	if f.wire == 0 {
		return append(dst, f.v), nil
	}
	b := f.bytes
	for len(b) > 0 {
		v, n := binary.Uvarint(b)
		if n <= 0 {
			return nil, errTruncated
		}
		dst = append(dst, v)
		b = b[n:]
	}
	return dst, nil
}

// parseCPUProfile decodes a (possibly gzipped) pprof CPU profile.
func parseCPUProfile(data []byte) (*cpuProfile, error) {
	if len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, err
		}
		if data, err = io.ReadAll(zr); err != nil {
			return nil, err
		}
	}
	fields, err := pbFields(data)
	if err != nil {
		return nil, err
	}
	p := &cpuProfile{locations: make(map[uint64][]uint64), functions: make(map[uint64]string)}
	var strs []string
	var sampleTypes [][2]uint64 // (type, unit) string indexes
	var rawSamples [][]pbField
	funcNames := make(map[uint64]uint64) // function id → name string index
	for _, f := range fields {
		switch f.num {
		case 1: // sample_type
			vt, err := pbFields(f.bytes)
			if err != nil {
				return nil, err
			}
			var t [2]uint64
			for _, g := range vt {
				if g.num == 1 || g.num == 2 {
					t[g.num-1] = g.v
				}
			}
			sampleTypes = append(sampleTypes, t)
		case 2: // sample
			s, err := pbFields(f.bytes)
			if err != nil {
				return nil, err
			}
			rawSamples = append(rawSamples, s)
		case 4: // location
			loc, err := pbFields(f.bytes)
			if err != nil {
				return nil, err
			}
			var id uint64
			var fns []uint64
			for _, g := range loc {
				switch g.num {
				case 1:
					id = g.v
				case 4: // line: inlined callees first, the caller last
					line, err := pbFields(g.bytes)
					if err != nil {
						return nil, err
					}
					for _, h := range line {
						if h.num == 1 {
							fns = append(fns, h.v)
						}
					}
				}
			}
			p.locations[id] = fns
		case 5: // function
			fn, err := pbFields(f.bytes)
			if err != nil {
				return nil, err
			}
			var id, name uint64
			for _, g := range fn {
				switch g.num {
				case 1:
					id = g.v
				case 2:
					name = g.v
				}
			}
			funcNames[id] = name
		case 6: // string_table
			strs = append(strs, string(f.bytes))
		}
	}
	str := func(i uint64) string {
		if i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	cpuIdx := -1
	for i, t := range sampleTypes {
		if str(t[0]) == "cpu" && str(t[1]) == "nanoseconds" {
			cpuIdx = i
		}
	}
	if cpuIdx < 0 {
		return nil, errors.New("profile: no cpu/nanoseconds sample type")
	}
	for id, name := range funcNames {
		p.functions[id] = str(name)
	}
	for _, s := range rawSamples {
		var locs, vals []uint64
		for _, g := range s {
			switch g.num {
			case 1:
				if locs, err = pbUints(g, locs); err != nil {
					return nil, err
				}
			case 2:
				if vals, err = pbUints(g, vals); err != nil {
					return nil, err
				}
			}
		}
		if cpuIdx >= len(vals) {
			return nil, errors.New("profile: sample without a cpu value")
		}
		p.samples = append(p.samples, cpuSample{locations: locs, cpuNs: int64(vals[cpuIdx])})
	}
	return p, nil
}

// packageOf returns the repro/internal package a function belongs to,
// or "" for any other function.
func packageOf(fn string) string {
	rest, ok := strings.CutPrefix(fn, internalPrefix)
	if !ok {
		return ""
	}
	if i := strings.IndexAny(rest, "./"); i >= 0 {
		rest = rest[:i]
	}
	return rest
}

// attribute sums CPU nanoseconds by the innermost repro/internal package
// on each sample's stack; samples without one count as "runtime".
func (p *cpuProfile) attribute() map[string]int64 {
	out := make(map[string]int64)
	for _, s := range p.samples {
		pkg := "runtime"
	stack:
		for _, loc := range s.locations {
			for _, fn := range p.locations[loc] {
				if name := packageOf(p.functions[fn]); name != "" {
					pkg = name
					break stack
				}
			}
		}
		out[pkg] += s.cpuNs
	}
	return out
}
