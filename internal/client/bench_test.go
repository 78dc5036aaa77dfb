package client

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
)

// fetchStage is the SDK open + redirect stage over loopback HTTP: a
// registry that answers every stream request with a 307 to one edge,
// and an edge serving a small fixed body.
func fetchStage(tb testing.TB) func() {
	tb.Helper()
	body := make([]byte, 4096)
	edge := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		_, _ = w.Write(body)
	}))
	tb.Cleanup(edge.Close)
	reg := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Redirect(w, r, edge.URL+r.URL.RequestURI(), http.StatusTemporaryRedirect)
	}))
	tb.Cleanup(reg.Close)
	cl := New(reg.URL)
	spec := Spec{Kind: VOD, Name: "lec", Failover: 1}
	return func() {
		sess, err := cl.Open(context.Background(), spec)
		if err != nil {
			tb.Fatal(err)
		}
		rc, err := sess.Fetch()
		if err != nil {
			tb.Fatal(err)
		}
		if n, err := io.Copy(io.Discard, rc); err != nil || n != int64(len(body)) {
			tb.Fatalf("drained %d bytes: %v", n, err)
		}
		rc.Close()
	}
}

// BenchmarkSessionFetch times one session through the registry's 307
// to an edge's 200, body drained.
func BenchmarkSessionFetch(b *testing.B) {
	fetch := fetchStage(b)
	fetch() // warm the keep-alive connections
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fetch()
	}
}

// maxSessionFetchAllocs is the allocation count one session fetch made
// before the session protocol moved into this package (Go 1.24,
// linux/amd64); the move removed per-session work, so the count may only
// fall.
const maxSessionFetchAllocs = 155

// raceEnabled is set under the race detector, whose sync.Pool drops
// pooled items at random, so net/http's allocation count is not
// comparable there.
var raceEnabled bool

// TestSessionFetchAllocs bounds the allocations of one session's open,
// redirect and drain (client and loopback servers together), so per-session
// work cannot creep back in.
func TestSessionFetchAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not comparable under the race detector")
	}
	fetch := fetchStage(t)
	fetch()
	got := testing.AllocsPerRun(200, fetch)
	t.Logf("allocs per session fetch: %.1f", got)
	if got > maxSessionFetchAllocs {
		t.Fatalf("session fetch = %.1f allocs, want <= %d", got, maxSessionFetchAllocs)
	}
}
