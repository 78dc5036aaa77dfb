package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/player"
	"repro/internal/proto"
)

// scriptedCluster is a fake registry whose answers to stream requests
// are scripted one per request, plus scripted edges: it records every
// request target, every exclude header and every failure report, so a
// test can pin the session's wire behaviour exactly.
type scriptedCluster struct {
	t   *testing.T
	reg *httptest.Server

	mu       sync.Mutex
	script   []func(w http.ResponseWriter, r *http.Request)
	targets  []string // stream request URIs, in order
	excludes []string // their ExcludeHeader values, in order
	reports  []string // failure-reported nodes, in order
}

func newScriptedCluster(t *testing.T) *scriptedCluster {
	t.Helper()
	sc := &scriptedCluster{t: t}
	sc.reg = httptest.NewServer(http.HandlerFunc(sc.serveRegistry))
	t.Cleanup(sc.reg.Close)
	return sc
}

func (sc *scriptedCluster) serveRegistry(w http.ResponseWriter, r *http.Request) {
	if r.Method == http.MethodPost && r.URL.Path == proto.Versioned(proto.PathReportFailure) {
		var rep proto.FailureReport
		if err := json.NewDecoder(r.Body).Decode(&rep); err != nil {
			sc.t.Errorf("bad failure report: %v", err)
		}
		sc.mu.Lock()
		sc.reports = append(sc.reports, rep.Node)
		sc.mu.Unlock()
		w.WriteHeader(http.StatusNoContent)
		return
	}
	sc.mu.Lock()
	sc.targets = append(sc.targets, r.URL.RequestURI())
	sc.excludes = append(sc.excludes, r.Header.Get(proto.ExcludeHeader))
	var step func(http.ResponseWriter, *http.Request)
	if len(sc.script) > 0 {
		step, sc.script = sc.script[0], sc.script[1:]
	}
	sc.mu.Unlock()
	if step == nil {
		sc.t.Errorf("unscripted registry request %s", r.URL.RequestURI())
		http.Error(w, "unscripted", http.StatusTeapot)
		return
	}
	step(w, r)
}

// then appends scripted answers for the next stream requests.
func (sc *scriptedCluster) then(steps ...func(http.ResponseWriter, *http.Request)) {
	sc.mu.Lock()
	sc.script = append(sc.script, steps...)
	sc.mu.Unlock()
}

// noEdge answers a stream request with the registry's no-live-edge 503.
func noEdge(w http.ResponseWriter, _ *http.Request) {
	http.Error(w, "no live edge", http.StatusServiceUnavailable)
}

// redirect answers a stream request with a 307 to the same request URI
// on the edge at base.
func redirect(base string) func(http.ResponseWriter, *http.Request) {
	return func(w http.ResponseWriter, r *http.Request) {
		http.Redirect(w, r, base+r.URL.RequestURI(), http.StatusTemporaryRedirect)
	}
}

// edge starts a scripted edge serving body; a sever of n > 0 cuts the
// response after n bytes (the handler aborts mid-body, so the client
// sees the connection drop, not a clean end).
func (sc *scriptedCluster) edge(body []byte, sever int) (base, host string) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if sever <= 0 {
			_, _ = w.Write(body)
			return
		}
		_, _ = w.Write(body[:sever])
		w.(http.Flusher).Flush()
		panic(http.ErrAbortHandler)
	}))
	sc.t.Cleanup(ts.Close)
	return ts.URL, hostOf(sc.t, ts.URL)
}

// deadEdge returns the base URL and host of an edge that refuses
// connections.
func (sc *scriptedCluster) deadEdge() (base, host string) {
	ts := httptest.NewServer(http.NotFoundHandler())
	ts.Close()
	return ts.URL, hostOf(sc.t, ts.URL)
}

func (sc *scriptedCluster) recorded() (targets, excludes, reports []string) {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	return append([]string(nil), sc.targets...), append([]string(nil), sc.excludes...), append([]string(nil), sc.reports...)
}

func hostOf(t *testing.T, raw string) string {
	t.Helper()
	u, err := url.Parse(raw)
	if err != nil {
		t.Fatal(err)
	}
	return u.Host
}

// TestFailoverBudget pins the session's retry accounting through the
// public SDK: with Failover 2 (three attempts), a mid-stream sever, a
// no-edge 503 and a refused edge each spend one attempt, whether they
// happen before or after the body starts. The first two are retried —
// counted in Stats and shown to OnRetry — and the third ends the
// session with the refused edge's error.
func TestFailoverBudget(t *testing.T) {
	data := encodeTestLecture(t, 2*time.Second)
	sc := newScriptedCluster(t)
	severBase, severHost := sc.edge(data, len(data)/2)
	deadBase, deadHost := sc.deadEdge()
	sc.then(redirect(severBase), noEdge, redirect(deadBase))

	var retried []string
	cl := New(sc.reg.URL, WithBackoff(time.Millisecond))
	sess, err := cl.Open(context.Background(), Spec{
		Kind: VOD, Name: "lec", Failover: 2,
		OnRetry: func(edge string, err error) {
			if err == nil {
				t.Error("OnRetry called with a nil error")
			}
			retried = append(retried, edge)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	m, err := sess.Play()
	if err == nil {
		t.Fatal("session survived three failures on a budget of three attempts")
	}
	if !strings.Contains(err.Error(), deadHost) {
		t.Fatalf("final error %q does not name the refused edge %s", err, deadHost)
	}
	if m == nil || m.VideoFrames == 0 {
		t.Fatalf("metrics = %+v, want the severed segment's frames", m)
	}
	if st := sess.Stats(); st != (Stats{Edge: deadHost, Failovers: 1, Retries: 2}) {
		t.Fatalf("stats = %+v, want {Edge:%s Failovers:1 Retries:2}", st, deadHost)
	}
	if want := []string{severHost, ""}; !slices.Equal(retried, want) {
		t.Fatalf("OnRetry edges = %q, want %q", retried, want)
	}

	// Wire behaviour: the severed edge is excluded on the next request;
	// the 503 clears the exclude list; both dead edges are reported.
	targets, excludes, reports := sc.recorded()
	if len(targets) != 3 {
		t.Fatalf("registry saw %d stream requests, want 3: %q", len(targets), targets)
	}
	if want := []string{"", severHost, ""}; !slices.Equal(excludes, want) {
		t.Fatalf("exclude headers = %q, want %q", excludes, want)
	}
	if want := []string{severHost, deadHost}; !slices.Equal(reports, want) {
		t.Fatalf("failure reports = %q, want %q", reports, want)
	}
	if targets[0] != "/v1/vod/lec" || !strings.HasPrefix(targets[1], "/v1/vod/lec?start=") || targets[2] != targets[1] {
		t.Fatalf("targets = %q, want the spec then two resumes at the last PTS", targets)
	}
}

// TestFetchFailoverBudget: Fetch spends the same budget on failures
// before the body starts, and a refused edge on the last attempt ends
// it without another retry.
func TestFetchFailoverBudget(t *testing.T) {
	data := encodeTestLecture(t, 2*time.Second)
	sc := newScriptedCluster(t)
	deadBase, deadHost := sc.deadEdge()
	liveBase, liveHost := sc.edge(data, 0)
	sc.then(noEdge, redirect(deadBase), redirect(liveBase))

	var retried []string
	cl := New(sc.reg.URL, WithBackoff(time.Millisecond))
	sess, err := cl.Open(context.Background(), Spec{
		Kind: VOD, Name: "lec", Start: time.Second, Failover: 2,
		OnRetry: func(edge string, _ error) { retried = append(retried, edge) },
	})
	if err != nil {
		t.Fatal(err)
	}
	body, err := sess.Fetch()
	if err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(body)
	body.Close()
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("fetched %d bytes (%v), want the edge's %d", len(got), err, len(data))
	}
	if st := sess.Stats(); st != (Stats{Edge: liveHost, Failovers: 1, Retries: 2}) {
		t.Fatalf("stats = %+v", st)
	}
	if want := []string{"", deadHost}; !slices.Equal(retried, want) {
		t.Fatalf("OnRetry edges = %q, want %q", retried, want)
	}
	targets, excludes, reports := sc.recorded()
	for _, tg := range targets {
		if tg != "/v1/vod/lec?start=1000ms" {
			t.Fatalf("targets = %q, want the spec's own on every attempt", targets)
		}
	}
	if want := []string{"", "", deadHost}; !slices.Equal(excludes, want) {
		t.Fatalf("exclude headers = %q, want %q", excludes, want)
	}
	if want := []string{deadHost}; !slices.Equal(reports, want) {
		t.Fatalf("failure reports = %q, want %q", reports, want)
	}

	// Budget exhausted before the body: the refused edge's error ends it.
	sc.then(noEdge, redirect(deadBase))
	sess, err = cl.Open(context.Background(), Spec{Kind: VOD, Name: "lec", Failover: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Fetch(); err == nil || !strings.Contains(err.Error(), deadHost) {
		t.Fatalf("fetch error = %v, want the refused edge's", err)
	}
	if st := sess.Stats(); st != (Stats{Edge: deadHost, Failovers: 0, Retries: 1}) {
		t.Fatalf("stats = %+v", st)
	}
}

// TestResumeTargets pins where a severed stream resumes: a stored
// stream at the later of its own Start and the last media timestamp it
// received, keeping its other parameters; a live stream rejoins as-is.
func TestResumeTargets(t *testing.T) {
	data := encodeTestLecture(t, 2*time.Second)
	half := len(data) / 2
	// The resume offset after half the stream: what the player saw.
	hm, _ := player.New(player.Options{}).Play(bytes.NewReader(data[:half]))
	if hm == nil || hm.LastPTS() <= 0 {
		t.Fatalf("half stream metrics = %+v, want media", hm)
	}
	lastPTS := proto.FormatStart(hm.LastPTS())
	if hm.LastPTS() >= 1500*time.Millisecond || hm.LastPTS() <= 250*time.Millisecond {
		t.Fatalf("half stream ends at %v, outside the window the seek cases need", hm.LastPTS())
	}

	for _, tc := range []struct {
		name  string
		spec  Spec
		sever int
		want  []string
	}{
		{"seek severed before media resumes at its Start",
			Spec{Kind: VOD, Name: "lec", Start: 3 * time.Second}, 8,
			[]string{"/v1/vod/lec?start=3000ms", "/v1/vod/lec?start=3000ms"}},
		{"seek severed after media resumes at the later Start",
			Spec{Kind: VOD, Name: "lec", Start: 1500 * time.Millisecond}, half,
			[]string{"/v1/vod/lec?start=1500ms", "/v1/vod/lec?start=1500ms"}},
		{"stream severed after media resumes at the last PTS",
			Spec{Kind: VOD, Name: "lec", Start: 250 * time.Millisecond}, half,
			[]string{"/v1/vod/lec?start=250ms", "/v1/vod/lec?start=" + lastPTS}},
		{"group keeps its bandwidth",
			Spec{Kind: Group, Name: "g", Bandwidth: 768000}, half,
			[]string{"/v1/group/g?bw=768000", "/v1/group/g?bw=768000&start=" + lastPTS}},
		{"live rejoins with no start",
			Spec{Kind: Live, Name: "class"}, half,
			[]string{"/v1/live/class", "/v1/live/class"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sc := newScriptedCluster(t)
			severBase, _ := sc.edge(data, tc.sever)
			liveBase, liveHost := sc.edge(data, 0)
			sc.then(redirect(severBase), redirect(liveBase))
			spec := tc.spec
			spec.Failover = 1
			sess, err := New(sc.reg.URL, WithBackoff(time.Millisecond)).Open(context.Background(), spec)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := sess.Play(); err != nil {
				t.Fatalf("play: %v", err)
			}
			if st := sess.Stats(); st != (Stats{Edge: liveHost, Failovers: 1, Retries: 1}) {
				t.Fatalf("stats = %+v", st)
			}
			if targets, _, _ := sc.recorded(); !slices.Equal(targets, tc.want) {
				t.Fatalf("targets = %q, want %q", targets, tc.want)
			}
		})
	}
}

// TestPlayStopsOnNonRetryable: a deterministic refusal (the registry
// answers 404) ends the session at once, whatever the budget.
func TestPlayStopsOnNonRetryable(t *testing.T) {
	sc := newScriptedCluster(t)
	sc.then(func(w http.ResponseWriter, _ *http.Request) { http.Error(w, "no such asset", http.StatusNotFound) })
	sess, err := New(sc.reg.URL).Open(context.Background(), Spec{Kind: VOD, Name: "lec", Failover: 5})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Play(); err == nil || !strings.Contains(err.Error(), "no such asset") {
		t.Fatalf("play error = %v, want the registry's 404", err)
	}
	if st := sess.Stats(); st != (Stats{}) {
		t.Fatalf("stats = %+v, want no retries", st)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	sess, _ = New(sc.reg.URL).Open(ctx, Spec{Kind: VOD, Name: "lec", Failover: 5})
	if _, err := sess.Fetch(); !errors.Is(err, context.Canceled) {
		t.Fatalf("fetch on a cancelled context = %v, want context.Canceled", err)
	}
	if st := sess.Stats(); st != (Stats{}) {
		t.Fatalf("stats after a cancelled fetch = %+v, want no retries", st)
	}
}
