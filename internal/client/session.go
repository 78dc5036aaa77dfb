package client

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"slices"
	"strings"
	"sync"

	"repro/internal/player"
	"repro/internal/proto"
	"repro/internal/vclock"
)

// Session is one logical stream through the cluster, opened from a
// Spec. A session is single-use: call Play (scripted playback) or
// Fetch (raw packet reads), then read Stats. It is not safe for
// concurrent use.
type Session interface {
	// Play streams to completion through the scripted player and
	// returns the merged metrics of every segment (never nil). Failover
	// happens inside: a dead edge is reported to the registry, excluded
	// from the next pick, and stored streams resume at the last
	// received media offset — never earlier than the spec's Start.
	Play() (*player.Metrics, error)
	// Fetch resolves the stream and returns its raw container body
	// (header, packets, trailing index) for callers that parse packets
	// themselves. Failures before the body starts — a dead edge, a
	// momentary no-edge 503 — fail over within the spec's budget, but a
	// stream severed mid-read is the caller's to handle: resume by
	// opening a new session with Start at the last offset read.
	Fetch() (io.ReadCloser, error)
	// Stats reports what the session has measured so far: the serving
	// edge and its failover counters.
	Stats() Stats
	// Target is the /v1 request path the session resolves, as built
	// from the spec.
	Target() string
}

// Stats is a session's failover accounting.
type Stats struct {
	// Edge is the host that served the stream — the last one, when the
	// session failed over.
	Edge string
	// Failovers counts serving-edge failures the session rode out: the
	// edge refused the connection, answered 5xx, or severed the stream
	// mid-play, and the session went back to the registry.
	Failovers int
	// Retries counts every extra registry round trip, failovers plus
	// no-edge (503) backoffs.
	Retries int
}

// session is the SDK's one Session implementation and the client half
// of cluster failover. Every attempt resolves the target through the
// registry by following the 307 itself, so it always knows which edge
// host is serving — the name a failure report and an exclude list
// need. Across attempts it accumulates an exclude list (sent as the
// proto.ExcludeHeader) so the registry never bounces it back to a node
// it just escaped, and it reports dead edges to the registry so the
// next client is spared the corpse.
type session struct {
	ctx  context.Context
	c    *Client
	spec Spec

	// attempt counts failures drawn from the budget of Spec.Failover
	// retries; exclude lists the hosts the registry must not pick.
	// Only the goroutine driving Play or Fetch touches them.
	attempt int
	exclude []string

	mu    sync.Mutex
	stats Stats
}

func newSession(ctx context.Context, c *Client, spec Spec) *session {
	return &session{ctx: ctx, c: c, spec: spec}
}

func (s *session) Target() string { return s.spec.Target() }

func (s *session) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

func (s *session) setEdge(edge string) {
	if edge == "" {
		return
	}
	s.mu.Lock()
	s.stats.Edge = edge
	s.mu.Unlock()
}

// Play plays segment after segment until one ends cleanly. A segment
// severed mid-play reports its edge dead and, within the budget,
// resumes elsewhere: a stored stream at the later of the spec's Start
// and the last media timestamp received, a live one by rejoining the
// channel.
func (s *session) Play() (*player.Metrics, error) {
	agg := &player.Metrics{}
	resume := s.spec
	for {
		resp, edge, err := s.open(resume.Target())
		if err != nil {
			return agg, err
		}
		body := io.Reader(resp.Body)
		if s.spec.WrapBody != nil {
			body = s.spec.WrapBody(body)
		}
		m, err := player.New(s.spec.Player).Play(body)
		resp.Body.Close()
		if m != nil {
			if m.FinalURL == "" && resp.Request != nil && resp.Request.URL != nil {
				m.FinalURL = resp.Request.URL.String()
			}
			if last := m.LastPTS(); resume.Kind != Live && last > resume.Start {
				resume.Start = last
			}
			agg.Merge(m)
		}
		if err == nil {
			return agg, nil
		}
		// The stream severed mid-play: the edge died under us. Tell the
		// registry, never go back there, resume elsewhere.
		s.fail(edge)
		if !s.retry(edge, err) {
			return agg, err
		}
	}
}

func (s *session) Fetch() (io.ReadCloser, error) {
	resp, _, err := s.open(s.spec.Target())
	if err != nil {
		return nil, err
	}
	return resp.Body, nil
}

// open resolves target until an edge answers 200, returning the
// response (the caller owns its body) and the edge's host. Retryable
// failures draw on the same budget as mid-stream severs.
func (s *session) open(target string) (*http.Response, string, error) {
	for {
		resp, edge, retryable, err := s.resolve(target)
		s.setEdge(edge)
		if err == nil {
			return resp, edge, nil
		}
		if !retryable || !s.retry(edge, err) {
			return nil, edge, err
		}
	}
}

// retry spends one attempt of the budget on a failure at edge (empty
// when the registry leg failed). When attempts remain and the context
// is live it counts the retry in Stats, shows it to Spec.OnRetry, backs
// off, and reports true.
func (s *session) retry(edge string, err error) bool {
	s.attempt++
	if s.attempt > s.spec.Failover || s.ctx.Err() != nil {
		return false
	}
	s.mu.Lock()
	s.stats.Retries++
	if edge != "" {
		s.stats.Failovers++
	}
	s.mu.Unlock()
	if f := s.spec.OnRetry; f != nil {
		f(edge, err)
	}
	return vclock.SleepCtx(s.ctx, vclock.Real{}, vclock.Backoff(s.c.backoff, s.attempt))
}

// resolve makes one attempt: the registry request, then the redirected
// edge request. It returns the edge's 200 response and host, or an
// error marked retryable when another registry round trip may cure it
// (connection refused, no edge momentarily live, edge 5xx) as opposed
// to a deterministic failure (missing asset, malformed request). A
// retryable edge failure has already been excluded, and reported when
// the edge is dead.
func (s *session) resolve(target string) (resp *http.Response, edge string, retryable bool, err error) {
	req, err := http.NewRequestWithContext(s.ctx, http.MethodGet, s.c.registry+target, nil)
	if err != nil {
		return nil, "", false, fetchError("", err)
	}
	if len(s.exclude) > 0 {
		req.Header.Set(proto.ExcludeHeader, proto.JoinExclude(s.exclude))
	}
	resp, err = s.c.noFollow.Do(req)
	if err != nil {
		// The registry leg itself failed; transient networks recover, so
		// let the bounded retry loop decide when to give up.
		return nil, "", true, fetchError("", err)
	}
	switch resp.StatusCode {
	case http.StatusTemporaryRedirect:
		loc := resp.Header.Get("Location")
		drain(resp)
		return s.resolveEdge(loc)
	case http.StatusServiceUnavailable:
		msg := readErr(resp)
		// No live edge. If we were excluding nodes, our knowledge may be
		// stale (an excluded edge could have restarted); drop it so the
		// next attempt can use whatever the registry has.
		s.exclude = nil
		return nil, "", true, fetchError("", fmt.Errorf("no edge live: %s", msg))
	default:
		msg := readErr(resp)
		return nil, "", false, fetchError("", fmt.Errorf("registry status %s: %s", resp.Status, msg))
	}
}

// resolveEdge performs the redirected leg against one edge.
func (s *session) resolveEdge(loc string) (*http.Response, string, bool, error) {
	u, err := url.Parse(loc)
	if err != nil {
		return nil, "", false, fetchError("", fmt.Errorf("bad redirect %q: %w", loc, err))
	}
	host := u.Host
	req, err := http.NewRequestWithContext(s.ctx, http.MethodGet, loc, nil)
	if err != nil {
		return nil, host, false, fetchError(host, err)
	}
	resp, err := s.c.noFollow.Do(req)
	if err != nil {
		// The edge refused the connection: it is dead or unreachable.
		// Tell the registry so it stops redirecting everyone else there,
		// and never ask for this host again ourselves.
		s.fail(host)
		return nil, host, true, fetchError(host, err)
	}
	switch {
	case resp.StatusCode == http.StatusOK:
		return resp, host, false, nil
	case resp.StatusCode >= 500:
		// Refused but reachable (draining, over capacity, origin pull
		// failed): exclude it for this session without declaring it dead.
		msg := readErr(resp)
		s.excludeHost(host)
		return nil, host, true, fetchError(host, fmt.Errorf("edge status %s: %s", resp.Status, msg))
	default:
		msg := readErr(resp)
		return nil, host, false, fetchError(host, fmt.Errorf("edge status %s: %s", resp.Status, msg))
	}
}

// fail records that edge died serving this session: it is excluded
// from future picks and reported to the registry so other clients stop
// being routed there.
func (s *session) fail(edge string) {
	s.excludeHost(edge)
	body, err := json.Marshal(proto.FailureReport{Node: edge})
	if err != nil {
		return
	}
	req, err := http.NewRequestWithContext(s.ctx, http.MethodPost,
		s.c.registry+proto.Versioned(proto.PathReportFailure), bytes.NewReader(body))
	if err != nil {
		return
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := s.c.http.Do(req)
	if err != nil {
		// The report is best effort: this session has already excluded
		// the edge, and the registry also drops it once its heartbeats
		// stop.
		return
	}
	drain(resp)
}

// excludeHost adds host to the session's exclude list without
// reporting it dead (used alone for refusals that are load, not death).
func (s *session) excludeHost(host string) {
	if !slices.Contains(s.exclude, host) {
		s.exclude = append(s.exclude, host)
	}
}

// fetchError names the leg of an attempt that failed: the edge host, or
// the registry when edge is empty.
func fetchError(edge string, err error) error {
	if edge != "" {
		return fmt.Errorf("client: fetch via edge %s: %w", edge, err)
	}
	return fmt.Errorf("client: fetch via registry: %w", err)
}

// drain discards and closes a response body so its connection can be
// reused.
func drain(resp *http.Response) {
	_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
	resp.Body.Close()
}

// readErr returns a short error body and closes the response.
func readErr(resp *http.Response) string {
	b, _ := io.ReadAll(io.LimitReader(resp.Body, 256))
	resp.Body.Close()
	return strings.TrimSpace(string(b))
}
