package netsim

import (
	"bytes"
	"math"
	"testing"
	"time"

	"repro/internal/vclock"
)

func TestLinkValidate(t *testing.T) {
	good := Link{BitsPerSecond: 1000, Latency: time.Millisecond, Jitter: time.Millisecond, LossRate: 0.1}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid link rejected: %v", err)
	}
	bad := []Link{
		{BitsPerSecond: -1},
		{Latency: -time.Second},
		{Jitter: -time.Second},
		{LossRate: -0.1},
		{LossRate: 1.0},
	}
	for i, l := range bad {
		if err := l.Validate(); err == nil {
			t.Errorf("bad link %d accepted", i)
		}
	}
}

func TestZeroLinkIsTransparent(t *testing.T) {
	var l Link
	d := l.Transmit(5*time.Second, 1_000_000)
	if d.Lost || d.ArrivedAt != 5*time.Second || d.DepartedAt != 5*time.Second {
		t.Fatalf("zero link delivery = %+v", d)
	}
}

func TestSerializationDelay(t *testing.T) {
	l := Link{BitsPerSecond: 8000} // 1000 bytes/s
	d := l.Transmit(0, 500)
	if want := 500 * time.Millisecond; d.ArrivedAt != want {
		t.Fatalf("500B over 1kB/s arrived at %v, want %v", d.ArrivedAt, want)
	}
}

func TestQueueingBuildsUp(t *testing.T) {
	l := Link{BitsPerSecond: 8000} // 1000 bytes/s
	first := l.Transmit(0, 1000)   // occupies [0s, 1s]
	second := l.Transmit(0, 1000)  // must queue behind: [1s, 2s]
	if first.DepartedAt != time.Second {
		t.Fatalf("first departed at %v", first.DepartedAt)
	}
	if second.DepartedAt != 2*time.Second {
		t.Fatalf("second departed at %v, want 2s (queued)", second.DepartedAt)
	}
	// A later packet after the queue drains is not delayed.
	third := l.Transmit(10*time.Second, 8)
	if third.DepartedAt != 10*time.Second+8*time.Millisecond {
		t.Fatalf("third departed at %v", third.DepartedAt)
	}
}

func TestLatencyAdded(t *testing.T) {
	l := Link{Latency: 100 * time.Millisecond}
	d := l.Transmit(time.Second, 100)
	if d.ArrivedAt != time.Second+100*time.Millisecond {
		t.Fatalf("arrival %v", d.ArrivedAt)
	}
	if d.Transit() != 100*time.Millisecond {
		t.Fatalf("transit %v", d.Transit())
	}
}

func TestJitterBoundedAndDeterministic(t *testing.T) {
	l1 := Link{Jitter: 50 * time.Millisecond, Seed: 9}
	l2 := Link{Jitter: 50 * time.Millisecond, Seed: 9}
	for i := 0; i < 100; i++ {
		d1 := l1.Transmit(time.Duration(i)*time.Second, 100)
		d2 := l2.Transmit(time.Duration(i)*time.Second, 100)
		if d1.ArrivedAt != d2.ArrivedAt {
			t.Fatal("same seed produced different jitter")
		}
		j := d1.ArrivedAt - d1.SentAt
		if j < 0 || j >= 50*time.Millisecond {
			t.Fatalf("jitter %v outside [0,50ms)", j)
		}
	}
}

func TestLossRateApproximate(t *testing.T) {
	l := Link{LossRate: 0.2, Seed: 123}
	lost := 0
	const n = 5000
	for i := 0; i < n; i++ {
		if l.Transmit(time.Duration(i)*time.Millisecond, 100).Lost {
			lost++
		}
	}
	got := float64(lost) / n
	if math.Abs(got-0.2) > 0.03 {
		t.Fatalf("observed loss %.3f, want ≈0.20", got)
	}
}

func TestResetRestoresDeterminism(t *testing.T) {
	l := Link{Jitter: 10 * time.Millisecond, LossRate: 0.3, Seed: 5}
	var first []Delivery
	for i := 0; i < 20; i++ {
		first = append(first, l.Transmit(time.Duration(i)*time.Second, 64))
	}
	l.Reset()
	for i := 0; i < 20; i++ {
		d := l.Transmit(time.Duration(i)*time.Second, 64)
		if d != first[i] {
			t.Fatalf("delivery %d differs after Reset", i)
		}
	}
}

// TestSeededStreamsPinned pins the delivery sequences of a jittery and
// a lossy link, so changes to how Transmit draws its randomness cannot
// silently shift any seeded run.
func TestSeededStreamsPinned(t *testing.T) {
	cases := []struct {
		name string
		link Link
		want []Delivery
	}{
		{"jitter", Link{BitsPerSecond: 768_000, Latency: 30 * time.Millisecond, Jitter: 10 * time.Millisecond, Seed: 7}, []Delivery{
			{SentAt: 0, DepartedAt: 10416666, ArrivedAt: 42947890, Bytes: 1000},
			{SentAt: 40000000, DepartedAt: 57708333, ArrivedAt: 93265712, Bytes: 1700},
			{SentAt: 80000000, DepartedAt: 105000000, ArrivedAt: 137117713, Bytes: 2400},
			{SentAt: 120000000, DepartedAt: 152291666, ArrivedAt: 191716148, Bytes: 3100},
			{SentAt: 160000000, DepartedAt: 199583333, ArrivedAt: 239080321, Bytes: 3800},
			{SentAt: 200000000, DepartedAt: 246875000, ArrivedAt: 282193182, Bytes: 4500},
			{SentAt: 240000000, DepartedAt: 301041666, ArrivedAt: 337775618, Bytes: 5200},
			{SentAt: 280000000, DepartedAt: 362499999, ArrivedAt: 400148096, Bytes: 5900},
			{SentAt: 320000000, DepartedAt: 431249999, ArrivedAt: 467484378, Bytes: 6600},
			{SentAt: 360000000, DepartedAt: 507291665, ArrivedAt: 542190422, Bytes: 7300},
		}},
		{"lossy", Link{BitsPerSecond: 2_000_000, Latency: 20 * time.Millisecond, LossRate: 0.3, Seed: 11}, []Delivery{
			{SentAt: 0, DepartedAt: 4000000, Lost: true, Bytes: 1000},
			{SentAt: 40000000, DepartedAt: 46800000, ArrivedAt: 66800000, Bytes: 1700},
			{SentAt: 80000000, DepartedAt: 89600000, ArrivedAt: 109600000, Bytes: 2400},
			{SentAt: 120000000, DepartedAt: 132400000, ArrivedAt: 152400000, Bytes: 3100},
			{SentAt: 160000000, DepartedAt: 175200000, ArrivedAt: 195200000, Bytes: 3800},
			{SentAt: 200000000, DepartedAt: 218000000, Lost: true, Bytes: 4500},
			{SentAt: 240000000, DepartedAt: 260800000, ArrivedAt: 280800000, Bytes: 5200},
			{SentAt: 280000000, DepartedAt: 303600000, ArrivedAt: 323600000, Bytes: 5900},
			{SentAt: 320000000, DepartedAt: 346400000, ArrivedAt: 366400000, Bytes: 6600},
			{SentAt: 360000000, DepartedAt: 389200000, ArrivedAt: 409200000, Bytes: 7300},
		}},
	}
	for _, tc := range cases {
		l := tc.link
		for i, want := range tc.want {
			got := l.Transmit(time.Duration(i)*40*time.Millisecond, 1000+i*700)
			if got != want {
				t.Errorf("%s delivery %d = %+v, want %+v", tc.name, i, got, want)
			}
		}
	}
}

// TestDeterministicTransmitAllocFree: a link without jitter or loss
// never builds a random source, so a fresh flow (one per viewer, as
// Clone hands out) shapes its packets without touching the heap.
func TestDeterministicTransmitAllocFree(t *testing.T) {
	avg := testing.AllocsPerRun(200, func() {
		l := Link{BitsPerSecond: 1_000_000, Latency: 10 * time.Millisecond, Seed: 3}
		l.Transmit(time.Millisecond, 1200)
		l.Transmit(2*time.Millisecond, 1200)
	})
	if avg != 0 {
		t.Fatalf("Transmit on a deterministic link allocates %.2f times; want 0", avg)
	}
}

// BenchmarkLinkTransmit is the netsim link stage of the packet path:
// one modeled transmission per op, on a deterministic link and on a
// jittery, lossy one.
func BenchmarkLinkTransmit(b *testing.B) {
	for _, tc := range []struct {
		name string
		link Link
	}{
		{"deterministic", Link{BitsPerSecond: 768_000, Latency: 30 * time.Millisecond}},
		{"lossy", LinkLossyWiFi},
	} {
		b.Run(tc.name, func(b *testing.B) {
			l := tc.link
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				l.Transmit(time.Duration(i)*time.Millisecond, 1200)
			}
		})
	}
}

func TestPresetsValid(t *testing.T) {
	for _, l := range []Link{LinkModem56k, LinkDSL, LinkLAN, LinkLossyWiFi} {
		if err := l.Validate(); err != nil {
			t.Errorf("preset invalid: %v", err)
		}
	}
}

func TestThrottledWriterPacesOnVirtualClock(t *testing.T) {
	clk := vclock.NewVirtual()
	var buf bytes.Buffer
	// 8000 bps = 1000 bytes per second.
	tw := NewThrottledWriter(&buf, 8000, clk)

	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 4; i++ {
			if _, err := tw.Write(make([]byte, 500)); err != nil {
				t.Errorf("write: %v", err)
				return
			}
		}
	}()
	// Drive the clock until the writer goroutine finishes (it sleeps once
	// more after its final write; each 500B write costs 500 ms of virtual
	// time).
	deadline := time.Now().Add(10 * time.Second)
drive:
	for time.Now().Before(deadline) {
		select {
		case <-done:
			break drive
		default:
			if clk.PendingWaiters() > 0 {
				clk.Advance(500 * time.Millisecond)
			} else {
				time.Sleep(time.Millisecond)
			}
		}
	}
	select {
	case <-done:
	default:
		t.Fatal("writer goroutine did not finish")
	}
	if buf.Len() != 2000 {
		t.Fatalf("wrote %d bytes, want 2000", buf.Len())
	}
	// The virtual clock must have advanced ≈2 s of serialization time.
	elapsed := clk.Now().Sub(vclock.Epoch)
	if elapsed < 1500*time.Millisecond {
		t.Fatalf("virtual time advanced only %v; throttling not applied", elapsed)
	}
}

func TestThrottledWriterUnlimited(t *testing.T) {
	var buf bytes.Buffer
	tw := NewThrottledWriter(&buf, 0, nil)
	start := time.Now()
	if _, err := tw.Write(make([]byte, 1<<20)); err != nil {
		t.Fatal(err)
	}
	if time.Since(start) > time.Second {
		t.Fatal("unthrottled write slept")
	}
	if buf.Len() != 1<<20 {
		t.Fatalf("wrote %d", buf.Len())
	}
}
