package asf

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"testing"
	"testing/iotest"
	"testing/quick"
	"time"

	"repro/internal/media"
)

var validKinds = []media.Kind{
	media.KindVideo, media.KindAudio, media.KindImage,
	media.KindText, media.KindAnnotation, media.KindScript,
}

func randomPacket(rng *rand.Rand) Packet {
	payload := make([]byte, rng.Intn(2048))
	rng.Read(payload)
	var flags uint8
	if rng.Intn(2) == 0 {
		flags |= PacketKeyframe
	}
	return Packet{
		Stream:  media.StreamID(rng.Intn(8)),
		Kind:    validKinds[rng.Intn(len(validKinds))],
		Flags:   flags,
		PTS:     time.Duration(rng.Int63n(int64(time.Hour))),
		Dur:     time.Duration(rng.Int63n(int64(time.Second))),
		SendAt:  time.Duration(rng.Int63n(int64(time.Hour))),
		Payload: payload,
	}
}

// TestPacketRoundTripProperty: every valid packet survives encode/decode
// byte-for-byte.
func TestPacketRoundTripProperty(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := randomPacket(rng)
		p.Seq = rng.Uint32()
		data, err := EncodePacket(p)
		if err != nil {
			return false
		}
		var buf bytes.Buffer
		buf.Write(data)
		r := NewReader(&buf)
		r.hasHeader = true // bypass header for raw packet decoding
		got, err := r.ReadPacket()
		if err != nil {
			return false
		}
		return got.Stream == p.Stream && got.Kind == p.Kind && got.Flags == p.Flags &&
			got.PTS == p.PTS && got.Dur == p.Dur && got.SendAt == p.SendAt &&
			got.Seq == p.Seq && bytes.Equal(got.Payload, p.Payload)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestFileRoundTripProperty: random files (header + packets) survive a full
// write/read cycle with index integrity.
func TestFileRoundTripProperty(t *testing.T) {
	prop := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		h := Header{
			Title:       "prop",
			Duration:    time.Minute,
			PacketAlign: 1400,
			Streams: []StreamProps{
				{ID: 1, Kind: media.KindVideo, Codec: "c", BitsPerSecond: 1000},
			},
		}
		var buf bytes.Buffer
		w, err := NewWriter(&buf, h)
		if err != nil {
			return false
		}
		count := int(n%32) + 1
		var keyframes int
		for i := 0; i < count; i++ {
			p := randomPacket(rng)
			if p.Keyframe() {
				keyframes++
			}
			if _, err := w.WritePacket(p); err != nil {
				return false
			}
		}
		if err := w.Close(); err != nil {
			return false
		}
		r := NewReader(bytes.NewReader(buf.Bytes()))
		if _, err := r.ReadHeader(); err != nil {
			return false
		}
		read := 0
		for {
			_, err := r.ReadPacket()
			if err == io.EOF {
				break
			}
			if err != nil {
				return false
			}
			read++
		}
		return read == count && len(r.Index()) == keyframes
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestTruncationNeverPanics cuts a file at every byte offset and reads
// each prefix through readers that return one byte, half the request,
// or data together with io.EOF. Every complete packet before the cut
// decodes intact, and io.EOF appears only when the cut falls on a frame
// boundary: a clean end. Any cut inside a frame is an error that is not
// io.EOF, so a failover-capable client never mistakes a severed stream
// for a finished one.
func TestTruncationNeverPanics(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, sampleHeader())
	if err != nil {
		t.Fatal(err)
	}
	packets := samplePackets()
	// ends[i] is the offset at which packet i's frame ends; ends[0] is
	// the end of the header.
	ends := make([]int, 0, len(packets)+1)
	if err := w.WriteHeader(); err != nil {
		t.Fatal(err)
	}
	ends = append(ends, buf.Len())
	for i := range packets {
		seq, err := w.WritePacket(packets[i])
		if err != nil {
			t.Fatal(err)
		}
		packets[i].Seq = seq
		ends = append(ends, buf.Len())
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()

	readers := map[string]func(io.Reader) io.Reader{
		"one-byte": iotest.OneByteReader,
		"half":     iotest.HalfReader,
		"data-err": iotest.DataErrReader,
	}
	for name, wrap := range readers {
		for cut := 0; cut <= len(full); cut++ {
			r := NewReader(wrap(bytes.NewReader(full[:cut])))
			_, err := r.ReadHeader()
			if cut < ends[0] {
				if err == nil {
					t.Fatalf("%s: header cut at %d accepted", name, cut)
				}
				if cut > 0 && errors.Is(err, io.EOF) {
					t.Fatalf("%s: header cut at %d reads as a clean end: %v", name, cut, err)
				}
				continue
			}
			if err != nil {
				t.Fatalf("%s: cut %d: header: %v", name, cut, err)
			}
			var got int
			for {
				p, err := r.ReadPacket()
				if err == nil {
					want := packets[got]
					if p.Seq != want.Seq || p.PTS != want.PTS || !bytes.Equal(p.Payload, want.Payload) {
						t.Fatalf("%s: cut %d: packet %d = %+v, want %+v", name, cut, got, p, want)
					}
					got++
					continue
				}
				// A clean end is a bare io.EOF after the last complete
				// packet, or after the whole index.
				boundary := cut == ends[got] || cut == len(full)
				if err == io.EOF && !boundary {
					t.Fatalf("%s: cut %d inside a frame read as a clean end after %d packets", name, cut, got)
				}
				if err != io.EOF && boundary {
					t.Fatalf("%s: cut %d on a frame boundary: %v", name, cut, err)
				}
				if err != io.EOF && errors.Is(err, io.EOF) {
					t.Fatalf("%s: cut %d: truncation error wraps io.EOF: %v", name, cut, err)
				}
				break
			}
			if cut >= ends[len(packets)] && got != len(packets) {
				t.Fatalf("%s: cut %d read %d packets, want %d", name, cut, got, len(packets))
			}
		}
	}
}

// TestLargePayloadRoundTrip: a payload several times the reader's
// stream buffer is read past the buffer, byte-exact, however the
// transport splits it.
func TestLargePayloadRoundTrip(t *testing.T) {
	payload := make([]byte, 200<<10)
	rand.New(rand.NewSource(7)).Read(payload)
	var buf bytes.Buffer
	w, err := NewWriter(&buf, sampleHeader())
	if err != nil {
		t.Fatal(err)
	}
	want := Packet{Stream: media.StreamVideo, Kind: media.KindVideo, Flags: PacketKeyframe,
		PTS: time.Second, Dur: 40 * time.Millisecond, Payload: payload}
	if _, err := w.WritePacket(want); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	for name, wrap := range map[string]func(io.Reader) io.Reader{
		"whole":    func(r io.Reader) io.Reader { return r },
		"one-byte": iotest.OneByteReader,
		"half":     iotest.HalfReader,
	} {
		_, got, _, err := ReadAll(wrap(bytes.NewReader(buf.Bytes())))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(got) != 1 || !bytes.Equal(got[0].Payload, payload) || got[0].PTS != want.PTS {
			t.Fatalf("%s: large payload did not round-trip byte-exact", name)
		}
	}
}

// TestRandomGarbageNeverPanics: feeding random bytes to the reader returns
// errors gracefully.
func TestRandomGarbageNeverPanics(t *testing.T) {
	prop := func(seed int64, size uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		junk := make([]byte, int(size%4096))
		rng.Read(junk)
		r := NewReader(bytes.NewReader(junk))
		if _, err := r.ReadHeader(); err != nil {
			return true
		}
		for i := 0; i < 100; i++ {
			if _, err := r.ReadPacket(); err != nil {
				return true
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
