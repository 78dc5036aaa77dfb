package asf

import (
	"bytes"
	"io"
	"testing"
	"time"

	"repro/internal/media"
)

func benchPacket(tb testing.TB, flags uint8) Packet {
	tb.Helper()
	return Packet{
		Stream:  1,
		Kind:    media.KindVideo,
		Flags:   flags,
		PTS:     time.Second,
		Dur:     66 * time.Millisecond,
		SendAt:  time.Second,
		Seq:     42,
		Payload: bytes.Repeat([]byte{0xCD}, 1024),
	}
}

// BenchmarkPacketClone contrasts the two ways a server can hand one
// packet to another consumer: re-encoding it (a fresh buffer, a fresh
// CRC pass — the per-subscriber cost before zero-copy fan-out) versus
// handing out the pre-built shared wire image (a pointer copy). The gap
// between the two sub-benchmarks is the per-subscriber saving that
// multiplies by fan-out width on the live path.
func BenchmarkPacketClone(b *testing.B) {
	p := benchPacket(b, PacketKeyframe)

	b.Run("encode", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(p.Payload)))
		for i := 0; i < b.N; i++ {
			if _, err := EncodePacket(p); err != nil {
				b.Fatal(err)
			}
		}
	})

	b.Run("shared", func(b *testing.B) {
		sp, err := NewShared(p)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.SetBytes(int64(len(p.Payload)))
		var sink []byte
		for i := 0; i < b.N; i++ {
			sink = sp.Wire()
		}
		_ = sink
	})
}

// TestWriteSharedAllocFree pins the serving-side half of the zero-copy
// contract: streaming a pre-encoded packet through a Writer performs no
// heap allocations — the shared wire image goes straight to the
// underlying writer. Uses a non-keyframe packet so the writer's seek
// index (which grows amortized on keyframes) stays out of the
// measurement.
func TestWriteSharedAllocFree(t *testing.T) {
	w, err := NewWriter(io.Discard, Header{Title: "allocs", PacketAlign: 2048})
	if err != nil {
		t.Fatal(err)
	}
	sp, err := NewShared(benchPacket(t, 0))
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WriteShared(sp); err != nil { // first write emits the header
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(200, func() {
		if err := w.WriteShared(sp); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Fatalf("WriteShared allocates %.2f times per packet; want 0", avg)
	}
}

// packetStream encodes n copies of p back to back, with no header: a
// reader over it must be marked as past the header.
func packetStream(tb testing.TB, p Packet, n int) []byte {
	tb.Helper()
	wire, err := EncodePacket(p)
	if err != nil {
		tb.Fatal(err)
	}
	return bytes.Repeat(wire, n)
}

// BenchmarkReaderReadPacket is the asf-read stage of the viewer's
// receive path: one 1 KiB video packet decoded per op, CRC included.
// The stream is rewound, buffer and all, when it runs out, so only
// the per-packet cost is measured.
func BenchmarkReaderReadPacket(b *testing.B) {
	p := benchPacket(b, 0)
	data := packetStream(b, p, 256)
	src := bytes.NewReader(data)
	r := NewReader(src)
	r.hasHeader = true
	b.ReportAllocs()
	b.SetBytes(int64(len(p.Payload)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pkt, err := r.ReadPacket()
		if err == io.EOF {
			src.Reset(data)
			r.r.Reset(src)
			r.done = false
			pkt, err = r.ReadPacket()
		}
		if err != nil {
			b.Fatal(err)
		}
		packetSink = pkt
	}
}

var packetSink Packet

// TestReadPacketAllocs pins the receive-path contract: decoding a packet
// allocates its payload and nothing else. The fixed header is decoded
// in place from the stream buffer.
func TestReadPacketAllocs(t *testing.T) {
	const runs = 100
	p := benchPacket(t, PacketKeyframe)
	r := NewReader(bytes.NewReader(packetStream(t, p, runs+1))) // AllocsPerRun adds a warm-up run
	r.hasHeader = true
	avg := testing.AllocsPerRun(runs, func() {
		got, err := r.ReadPacket()
		if err != nil {
			t.Fatal(err)
		}
		packetSink = got
	})
	if avg != 1 {
		t.Fatalf("ReadPacket allocates %.2f times per packet; want exactly 1 (the payload)", avg)
	}
}

// TestParseScriptPacketAllocs: parsing an in-band script command costs
// at most its two strings.
func TestParseScriptPacketAllocs(t *testing.T) {
	pkt, err := ScriptPacket(ScriptCommand{At: time.Second, Type: "slide", Param: "slide07.png"}, media.StreamScript)
	if err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(100, func() {
		if _, err := ParseScriptPacket(pkt); err != nil {
			t.Fatal(err)
		}
	})
	if avg > 2 {
		t.Fatalf("ParseScriptPacket allocates %.2f times; want at most 2 (type and param)", avg)
	}
}
