package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"runtime/pprof"
	"testing"
)

// pb is a minimal protobuf encoder for building synthetic profiles.
type pb []byte

func (b pb) varint(num int, v uint64) pb {
	b = binary.AppendUvarint(b, uint64(num)<<3)
	return binary.AppendUvarint(b, v)
}

func (b pb) bytes(num int, v []byte) pb {
	b = binary.AppendUvarint(b, uint64(num)<<3|2)
	b = binary.AppendUvarint(b, uint64(len(v)))
	return append(b, v...)
}

func (b pb) packed(num int, vs ...uint64) pb {
	var inner []byte
	for _, v := range vs {
		inner = binary.AppendUvarint(inner, v)
	}
	return b.bytes(num, inner)
}

// syntheticProfile builds a gzipped CPU profile over these functions:
//
//	1 runtime.mallocgc
//	2 repro/internal/asf.(*Writer).WritePacket
//	3 repro/internal/streaming.(*Server).handleVOD.func1
//	4 net/http.(*conn).serve
//	5 repro/internal/relay.(*Edge).ensure
//	6 repro/internal/edgecache.(*Cache).Touch (inlined into 5)
//	7 repro/lodperf.main
//
// and samples (innermost frame first):
//
//	a: mallocgc ← WritePacket ← handleVOD   30ns  → asf
//	b: handleVOD ← conn.serve               20ns  → streaming
//	c: mallocgc ← conn.serve                 7ns  → runtime
//	d: [Touch inlined in ensure]             5ns  → edgecache
//	e: mallocgc ← lodperf.main               4ns  → runtime
//	f: WritePacket, unpacked location ids    2ns  → asf
func syntheticProfile(t *testing.T) []byte {
	t.Helper()
	strs := []string{"", "samples", "count", "cpu", "nanoseconds",
		"runtime.mallocgc",
		"repro/internal/asf.(*Writer).WritePacket",
		"repro/internal/streaming.(*Server).handleVOD.func1",
		"net/http.(*conn).serve",
		"repro/internal/relay.(*Edge).ensure",
		"repro/internal/edgecache.(*Cache).Touch",
		"repro/lodperf.main",
	}
	var p pb
	p = p.bytes(1, pb(nil).varint(1, 1).varint(2, 2))
	p = p.bytes(1, pb(nil).varint(1, 3).varint(2, 4))
	sample := func(cpu uint64, locs ...uint64) {
		p = p.bytes(2, pb(nil).packed(1, locs...).packed(2, 1, cpu))
	}
	sample(30, 1, 2, 3)
	sample(20, 3, 4)
	sample(7, 1, 4)
	sample(5, 5)
	sample(4, 1, 7)
	// An encoder may also write repeated ids unpacked.
	p = p.bytes(2, pb(nil).varint(1, 2).varint(2, 1).varint(2, 2))
	for id := uint64(1); id <= 7; id++ {
		if id == 5 || id == 6 {
			continue
		}
		loc := pb(nil).varint(1, id).bytes(4, pb(nil).varint(1, id).varint(2, 10))
		p = p.bytes(4, loc)
	}
	// Location 5 holds Touch inlined into ensure: callee line first.
	p = p.bytes(4, pb(nil).varint(1, 5).
		bytes(4, pb(nil).varint(1, 6)).
		bytes(4, pb(nil).varint(1, 5)))
	for id := uint64(1); id <= 7; id++ {
		p = p.bytes(5, pb(nil).varint(1, id).varint(2, id+4))
	}
	for _, s := range strs {
		p = p.bytes(6, []byte(s))
	}
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if _, err := zw.Write(p); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestAttributeSyntheticProfile(t *testing.T) {
	prof, err := parseCPUProfile(syntheticProfile(t))
	if err != nil {
		t.Fatal(err)
	}
	got := prof.attribute()
	want := map[string]int64{"asf": 32, "streaming": 20, "runtime": 11, "edgecache": 5}
	if len(got) != len(want) {
		t.Fatalf("attribution %v, want %v", got, want)
	}
	for pkg, ns := range want {
		if got[pkg] != ns {
			t.Errorf("%s: %d ns, want %d (all: %v)", pkg, got[pkg], ns, got)
		}
	}
}

func TestPackageOf(t *testing.T) {
	for fn, want := range map[string]string{
		"repro/internal/relay.(*Edge).ensure.func1": "relay",
		"repro/internal/netsim.NewLinkReader":       "netsim",
		"repro/internal/foo/bar.Baz":                "foo",
		"repro/lodperf.main":                        "",
		"runtime.mallocgc":                          "",
		"net/http.(*conn).serve":                    "",
	} {
		if got := packageOf(fn); got != want {
			t.Errorf("packageOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

func TestParseRejectsGarbage(t *testing.T) {
	for _, data := range [][]byte{{0x0a, 0x05, 0x01}, {0xff}} {
		if _, err := parseCPUProfile(data); err == nil {
			t.Errorf("parse %x: no error", data)
		}
	}
}

// TestParseRealProfile decodes a profile written by runtime/pprof, so
// the reader keeps up with the encoder it actually meets.
func TestParseRealProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("cpu profiling unavailable:", err)
	}
	x := 0
	for i := 0; i < 30_000_000; i++ {
		x += i % 7
	}
	pprof.StopCPUProfile()
	sink = x
	prof, err := parseCPUProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, ns := range prof.attribute() {
		total += ns
	}
	if total < 0 {
		t.Fatalf("negative cpu total %d", total)
	}
}

var sink int
