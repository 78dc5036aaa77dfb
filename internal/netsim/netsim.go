// Package netsim simulates network links so every experiment can sweep
// bandwidth, latency, jitter, and loss deterministically on one machine,
// substituting for the paper's campus network testbed.
//
// Four complementary tools:
//
//   - Link: an analytic, stateful packet-delivery model (serialization
//     delay + propagation latency + uniform jitter + Bernoulli loss) used
//     by the synchronization and scalability experiments.
//   - ThrottledWriter: an io.Writer wrapper that paces real byte streams to
//     a configured bandwidth against any vclock.Clock, used on the HTTP
//     streaming path.
//   - LinkReader: the receive-side counterpart — an io.Reader that delays
//     each chunk by a Link's modeled transit time, shaping a client's
//     download the way ThrottledWriter shapes a server's upload.
//   - MemNet: an in-process network of named net.Listeners over net.Pipe,
//     so cluster-scale load generation (internal/loadgen) runs thousands
//     of concurrent HTTP sessions without consuming TCP ports.
//
// Concurrency: ThrottledWriter and MemNet are safe for concurrent use.
// Link is NOT — it carries serialization-queue and RNG state, so each
// simulated flow must own its own Link (clone a shared prototype with
// Link.Clone); LinkReader assumes exclusive ownership of its Link and,
// like any io.Reader, confinement to a single goroutine.
package netsim

import (
	"fmt"
	"io"
	"math/rand"
	"sync"
	"time"

	"repro/internal/vclock"
)

// Link is a deterministic single-queue network link model. The zero value
// is an infinitely fast, lossless, zero-latency link.
//
// Link is NOT safe for concurrent use: Transmit mutates the
// serialization queue (busyUntil) and the random streams, so two
// goroutines sharing one Link race and corrupt each other's delivery
// times. Each simulated flow must own a private Link — derive one per
// flow from a shared prototype with Clone, which is how
// internal/loadgen gives every virtual client its own shaped link.
type Link struct {
	// BitsPerSecond is the serialization rate; zero means infinite.
	BitsPerSecond int64
	// Latency is the fixed propagation delay.
	Latency time.Duration
	// Jitter adds a uniform random delay in [0, Jitter) per packet.
	Jitter time.Duration
	// LossRate drops packets with this probability in [0, 1).
	LossRate float64
	// Seed makes jitter and loss reproducible.
	Seed int64

	rng       *rand.Rand
	busyUntil time.Duration
}

// Validate checks the link parameters.
func (l *Link) Validate() error {
	switch {
	case l.BitsPerSecond < 0:
		return fmt.Errorf("netsim: negative bandwidth %d", l.BitsPerSecond)
	case l.Latency < 0:
		return fmt.Errorf("netsim: negative latency %v", l.Latency)
	case l.Jitter < 0:
		return fmt.Errorf("netsim: negative jitter %v", l.Jitter)
	case l.LossRate < 0 || l.LossRate >= 1:
		return fmt.Errorf("netsim: loss rate %v outside [0,1)", l.LossRate)
	}
	return nil
}

// Delivery is the outcome of transmitting one packet.
type Delivery struct {
	// SentAt is when the packet was handed to the link.
	SentAt time.Duration
	// DepartedAt is when serialization finished (queueing included).
	DepartedAt time.Duration
	// ArrivedAt is when the packet reached the far end (valid if !Lost).
	ArrivedAt time.Duration
	// Lost reports the packet was dropped.
	Lost bool
	// Bytes is the packet size.
	Bytes int
}

// Transit returns the end-to-end delay experienced by the packet.
func (d Delivery) Transit() time.Duration { return d.ArrivedAt - d.SentAt }

// Transmit models sending size bytes at time sendAt and returns the
// delivery outcome. Calls must be made in non-decreasing sendAt order for
// the serialization queue to be meaningful.
func (l *Link) Transmit(sendAt time.Duration, size int) Delivery {
	d := Delivery{SentAt: sendAt, Bytes: size}

	start := sendAt
	if l.busyUntil > start {
		start = l.busyUntil
	}
	var tx time.Duration
	if l.BitsPerSecond > 0 {
		tx = time.Duration(float64(size*8) / float64(l.BitsPerSecond) * float64(time.Second))
	}
	l.busyUntil = start + tx
	d.DepartedAt = l.busyUntil

	// Without jitter or loss no draw can change the outcome, so a
	// deterministic link never builds its random source (one per cloned
	// flow adds up under fan-out).
	if l.Jitter == 0 && l.LossRate == 0 {
		d.ArrivedAt = d.DepartedAt + l.Latency
		return d
	}
	if l.rng == nil {
		l.rng = rand.New(rand.NewSource(l.Seed))
	}
	// Consume randomness in a fixed order so loss and jitter streams are
	// stable regardless of parameters.
	lossDraw := l.rng.Float64()
	var jitter time.Duration
	if l.Jitter > 0 {
		jitter = time.Duration(l.rng.Int63n(int64(l.Jitter)))
	}
	if l.LossRate > 0 && lossDraw < l.LossRate {
		d.Lost = true
		return d
	}
	d.ArrivedAt = d.DepartedAt + l.Latency + jitter
	return d
}

// Reset clears queue state and reseeds the random streams.
func (l *Link) Reset() {
	l.busyUntil = 0
	l.rng = nil
}

// Clone returns a fresh Link with the same parameters but its own
// queue state and random streams, seeded with seed. It is the
// concurrency guard for fan-out users: keep one prototype Link and
// hand each concurrent flow a Clone to own exclusively.
func (l *Link) Clone(seed int64) *Link {
	return &Link{
		BitsPerSecond: l.BitsPerSecond,
		Latency:       l.Latency,
		Jitter:        l.Jitter,
		LossRate:      l.LossRate,
		Seed:          seed,
	}
}

// Presets mirroring the codec profile audiences.
var (
	// LinkModem56k is a 56 kbps dial-up line.
	LinkModem56k = Link{BitsPerSecond: 56_000, Latency: 120 * time.Millisecond, Jitter: 40 * time.Millisecond, Seed: 1}
	// LinkDSL is consumer DSL.
	LinkDSL = Link{BitsPerSecond: 768_000, Latency: 30 * time.Millisecond, Jitter: 10 * time.Millisecond, Seed: 1}
	// LinkLAN is a campus LAN.
	LinkLAN = Link{BitsPerSecond: 10_000_000, Latency: 2 * time.Millisecond, Jitter: time.Millisecond, Seed: 1}
	// LinkLossyWiFi is a congested wireless link.
	LinkLossyWiFi = Link{BitsPerSecond: 2_000_000, Latency: 20 * time.Millisecond, Jitter: 30 * time.Millisecond, LossRate: 0.05, Seed: 1}
)

// ThrottledWriter paces writes to an underlying writer at a fixed
// bandwidth, sleeping on the supplied clock. It is safe for concurrent use.
type ThrottledWriter struct {
	mu            sync.Mutex
	w             io.Writer
	clock         vclock.Clock
	bitsPerSecond int64
	debt          time.Duration
	last          time.Time
	started       bool
}

// NewThrottledWriter wraps w at the given bandwidth. A nil clock uses the
// real clock; bitsPerSecond <= 0 disables throttling.
func NewThrottledWriter(w io.Writer, bitsPerSecond int64, clock vclock.Clock) *ThrottledWriter {
	if clock == nil {
		clock = vclock.Real{}
	}
	return &ThrottledWriter{w: w, clock: clock, bitsPerSecond: bitsPerSecond}
}

// Write implements io.Writer, sleeping as needed so the long-run rate does
// not exceed the configured bandwidth.
func (t *ThrottledWriter) Write(p []byte) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.bitsPerSecond <= 0 {
		return t.w.Write(p)
	}
	now := t.clock.Now()
	if !t.started {
		t.started = true
		t.last = now
	}
	// Pay down debt with elapsed time.
	elapsed := now.Sub(t.last)
	t.last = now
	t.debt -= elapsed
	if t.debt < 0 {
		t.debt = 0
	}
	n, err := t.w.Write(p)
	t.debt += time.Duration(float64(n*8) / float64(t.bitsPerSecond) * float64(time.Second))
	if t.debt > 0 {
		t.clock.Sleep(t.debt)
		t.last = t.clock.Now()
		t.debt = 0
	}
	return n, err
}
