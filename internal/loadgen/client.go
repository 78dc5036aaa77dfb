package loadgen

import (
	"context"
	"io"
	"math/rand"
	"time"

	"repro/internal/client"
	"repro/internal/netsim"
	"repro/internal/player"
	"repro/internal/vclock"
)

// SessionResult is what one virtual client measured.
type SessionResult struct {
	ID   int    `json:"-"`
	Kind Kind   `json:"kind"`
	URL  string `json:"-"`
	// Edge is the host that actually served the stream after the
	// registry's redirect — the last one, when the session failed over.
	Edge string `json:"edge"`
	// Err is the failure, empty on success.
	Err string `json:"err,omitempty"`

	// Failovers counts serving-edge failures the session rode out: the
	// edge refused the connection, answered 5xx, or severed the stream
	// mid-session, and the client went back to the registry. A session
	// with Err=="" and Failovers>0 survived via failover rather than
	// cleanly.
	Failovers int `json:"failovers,omitempty"`
	// Retries counts every extra registry round trip the session made,
	// failovers plus no-edge (503) backoffs.
	Retries int `json:"retries,omitempty"`

	// StartupMs is request issued → first stream byte received,
	// redirect and modeled link transit included — the client half of
	// startup latency.
	StartupMs float64 `json:"startupMs"`
	// DurationMs is the playback time on the anchored schedule, summed
	// across failover segments.
	DurationMs float64 `json:"durationMs"`
	// Stalls/StallMs are rebuffer events: items that missed their
	// anchored presentation deadline, and by how much in total.
	Stalls  int     `json:"stalls"`
	StallMs float64 `json:"stallMs"`
	// MaxSkewMs/MeanSkewMs are presentation lateness over the session —
	// the client-observed pacing jitter.
	MaxSkewMs  float64 `json:"maxSkewMs"`
	MeanSkewMs float64 `json:"meanSkewMs"`

	BytesRead    int64 `json:"bytesRead"`
	VideoFrames  int   `json:"videoFrames"`
	BrokenFrames int   `json:"brokenFrames"`
	SlidesShown  int   `json:"slidesShown"`
}

// sessionSpec draws one client's stream spec. Path construction is the
// SDK's job (client.Spec.Target → proto.StreamPath), so asset names
// with spaces, slashes, or query metacharacters are percent-encoded by
// construction — the loadgen side of the edge→origin escaping fix.
// Name draws go through the scenario's popularity model (c.pop) with
// the client's own rng, so the drawn population is identical however
// the swarm is sharded.
func (c *Cluster) sessionSpec(kind Kind, rng *rand.Rand) client.Spec {
	s := c.Scenario
	switch kind {
	case KindSeek:
		name := c.AssetNames[c.pop.pick(rng, len(c.AssetNames))]
		// Seek somewhere in the middle half of the presentation.
		at := time.Duration((0.25 + 0.5*rng.Float64()) * float64(s.AssetDuration))
		return client.Spec{Kind: client.VOD, Name: name, Start: at}
	case KindGroup:
		name := c.GroupNames[c.pop.pick(rng, len(c.GroupNames))]
		bw := s.ClientBandwidth
		if bw <= 0 {
			bw = 1 << 30
		}
		return client.Spec{Kind: client.Group, Name: name, Bandwidth: bw}
	case KindLive, KindLiveFan:
		return client.Spec{Kind: client.Live, Name: c.LiveNames[c.pop.pick(rng, len(c.LiveNames))]}
	case KindVOD:
		return client.Spec{Kind: client.VOD, Name: c.AssetNames[c.pop.pick(rng, len(c.AssetNames))]}
	}
	return client.Spec{Kind: client.VOD, Name: c.AssetNames[0]}
}

// firstByteReader stamps the arrival of the first stream byte on the
// scenario's clock.
type firstByteReader struct {
	r     io.Reader
	clock vclock.Clock
	at    *time.Time
}

func (f *firstByteReader) Read(p []byte) (int, error) {
	n, err := f.r.Read(p)
	if n > 0 && f.at.IsZero() {
		*f.at = f.clock.Now()
	}
	return n, err
}

// RunSession executes one virtual client: open the drawn spec through
// the cluster's session SDK (internal/client) and play the stream in
// realtime through the client's private shaped link. The id seeds every
// per-client draw, so a rerun issues the identical session.
//
// When the scenario grants FailoverAttempts, a session whose edge
// refuses the connection or severs the stream mid-play goes back to the
// registry — reporting the dead edge and excluding it from the next
// pick — and, for stored content, resumes at the last media offset it
// received. The session's Stats feed the result's Failovers/Retries,
// so the report can distinguish sessions that survived via failover
// from clean runs.
func (c *Cluster) RunSession(ctx context.Context, id int, kind Kind) SessionResult {
	return c.runSessionWith(ctx, c.sdk, id, kind)
}

// runSessionWith is RunSession against an explicit session SDK — shard
// drivers pass their own so concurrent shards never share a connection
// pool. The SDK choice changes transport affinity only; every draw
// still derives from (seed, id), so results are SDK-independent.
func (c *Cluster) runSessionWith(ctx context.Context, sdk *client.Client, id int, kind Kind) SessionResult {
	s := c.Scenario
	rng := rand.New(rand.NewSource(s.Seed<<20 + int64(id)))
	res := SessionResult{ID: id, Kind: kind}
	spec := c.sessionSpec(kind, rng)
	spec.Failover = s.FailoverAttempts
	res.URL = RegistryURL + spec.Target()

	// Each client owns a private clone of the scenario link — netsim.Link
	// is not safe for concurrent use, so the prototype is never shared.
	// Failover segments of the same session run sequentially, so they
	// share the clone.
	var link *netsim.Link
	if s.Link != (netsim.Link{}) {
		link = s.Link.Clone(s.Seed<<20 + int64(id))
	}
	spec.Player = player.Options{
		Realtime:            true,
		AnchorToFirstPacket: true,
		JitterBufferDepth:   s.JitterBufferDepth,
		// Below ~50ms lateness is OS timer/scheduler noise, not
		// rebuffering; it still lands in the skew statistics.
		StallTolerance: 50 * time.Millisecond,
	}

	// The first-byte stamp sits outside the link shaping, so StartupMs
	// includes the modeled last-mile transit, consistent with the
	// stall/skew numbers the player measures on post-shaping arrivals.
	// Only the very first byte of the whole session stamps it; failover
	// reconnects don't reset startup.
	clock := s.clock()
	var firstByte time.Time
	spec.WrapBody = func(r io.Reader) io.Reader {
		return &firstByteReader{r: netsim.NewLinkReader(r, link, nil), clock: clock, at: &firstByte}
	}

	t0 := clock.Now()
	session, err := sdk.Open(ctx, spec)
	if err != nil {
		res.Err = err.Error()
		return res
	}
	if kind == KindLiveFan {
		return c.drainSession(session, spec, res, clock, t0, &firstByte)
	}
	agg, err := session.Play()
	st := session.Stats()
	res.Edge = st.Edge
	res.Failovers = st.Failovers
	res.Retries = st.Retries
	if err != nil {
		res.Err = err.Error()
	}

	if !firstByte.IsZero() {
		res.StartupMs = float64(firstByte.Sub(t0)) / float64(time.Millisecond)
	}
	res.DurationMs = float64(agg.Duration) / float64(time.Millisecond)
	res.Stalls = agg.Stalls
	res.StallMs = float64(agg.StallTime) / float64(time.Millisecond)
	res.MaxSkewMs = float64(agg.MaxSkew) / float64(time.Millisecond)
	res.MeanSkewMs = float64(agg.MeanSkew) / float64(time.Millisecond)
	res.BytesRead = agg.BytesRead
	res.VideoFrames = agg.VideoFrames
	res.BrokenFrames = agg.BrokenFrames
	res.SlidesShown = agg.SlidesShown
	return res
}

// drainSession is the KindLiveFan session body: rip the raw container
// body as fast as it arrives, counting bytes but never parsing packets
// or pacing presentation. The session ends when the broadcast does.
// Because the client costs almost nothing, the server's per-subscriber
// write path is what saturates — the number the fanout scenario exists
// to measure.
func (c *Cluster) drainSession(session client.Session, spec client.Spec,
	res SessionResult, clock vclock.Clock, t0 time.Time, firstByte *time.Time) SessionResult {

	body, err := session.Fetch()
	st := session.Stats()
	res.Edge = st.Edge
	res.Failovers = st.Failovers
	res.Retries = st.Retries
	if err != nil {
		res.Err = err.Error()
		return res
	}
	defer body.Close()
	// Fetch hands back the raw response body; route it through the
	// spec's wrapper anyway so the first-byte stamp (and any link
	// shaping the scenario insists on) behaves like every other kind.
	r := io.Reader(body)
	if spec.WrapBody != nil {
		r = spec.WrapBody(body)
	}
	n, err := io.Copy(io.Discard, r)
	res.BytesRead = n
	if err != nil {
		res.Err = err.Error()
	}
	if !firstByte.IsZero() {
		res.StartupMs = float64(firstByte.Sub(t0)) / float64(time.Millisecond)
	}
	res.DurationMs = float64(clock.Now().Sub(t0)) / float64(time.Millisecond)
	return res
}
