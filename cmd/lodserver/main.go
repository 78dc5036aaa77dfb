// Command lodserver runs the Lecture-on-Demand streaming server: stored
// assets are served at /v1/vod/{name}, live channels at
// /v1/live/{channel}, with JSON listings at /v1/assets and /v1/channels,
// and whole-container mirror transfers at /v1/fetch/{name}. Every
// endpoint also answers on its legacy unversioned alias (/vod/...); the
// route constants live in internal/proto.
//
// The server can run standalone or as part of a distributed origin→edge
// cluster (internal/relay):
//
//	lodserver -addr :8080 -asset lecture1=published.asf
//	lodserver -addr :8080 -demo              # generate and serve a demo asset
//
//	# origin that also hosts the cluster registry on :9090
//	lodserver -addr :8080 -demo -registry :9090
//
//	# edge pulling through from the origin, registered with the registry,
//	# mirroring at most 256 MiB of assets (LRU eviction beyond that)
//	lodserver -addr :8081 -origin http://origin:8080 \
//	    -edge http://edge1:8081 -registry http://origin:9090 \
//	    -cache-bytes 268435456
//
// Clients then connect to the registry's /vod/... and /live/... URLs and
// are 307-redirected to the least-loaded edge.
//
// Every role serves GET /metrics (Prometheus text) and GET /status
// (JSON snapshot) on its listener unless -metrics=false; the registry
// listener exposes its own counters the same way. See internal/metrics.
//
// On SIGINT/SIGTERM the server shuts down gracefully: a node registered
// with a registry deregisters first (so no new client is redirected at
// it), then refuses new sessions and drains in-flight ones for up to
// -drain before exiting. Clients of a node that dies without draining
// fail over through the registry instead (see internal/relay).
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	netpprof "net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/asf"
	"repro/internal/capture"
	"repro/internal/catalog"
	"repro/internal/codec"
	"repro/internal/edgecache"
	"repro/internal/encoder"
	"repro/internal/relay"
	"repro/internal/streaming"
)

// assetFlags collects repeated -asset name=path flags.
type assetFlags map[string]string

func (a assetFlags) String() string { return fmt.Sprintf("%v", map[string]string(a)) }

func (a assetFlags) Set(v string) error {
	parts := strings.SplitN(v, "=", 2)
	if len(parts) != 2 || parts[0] == "" || parts[1] == "" {
		return fmt.Errorf("want name=path, got %q", v)
	}
	a[parts[0]] = parts[1]
	return nil
}

// config is the parsed, validated command line.
type config struct {
	addr         string
	demo         bool
	pacing       bool
	assets       assetFlags
	capacity     int64
	origin       string // non-empty: run as an edge of this origin
	edgeURL      string // advertised URL for registry registration
	registry     string // URL → register with it; listen address → host it
	stateDir     string // non-empty: hosted registry persists its state here
	heartbeat    time.Duration
	metricsOn    bool
	pprofOn      bool
	cacheBytes   int64
	cachePolicy  string
	cachePrewarm int
	drain        time.Duration
}

// hostsRegistry reports whether -registry names a listen address to serve
// a registry on (as opposed to a remote registry URL to register with).
func (c *config) hostsRegistry() bool {
	return c.registry != "" && !strings.Contains(c.registry, "://")
}

func parseConfig(args []string) (*config, error) {
	c := &config{assets: assetFlags{}}
	fs := flag.NewFlagSet("lodserver", flag.ContinueOnError)
	fs.StringVar(&c.addr, "addr", ":8080", "listen address")
	fs.BoolVar(&c.demo, "demo", false, "register a generated demo asset as 'demo'")
	fs.BoolVar(&c.pacing, "pacing", true, "pace VOD packets by their send times")
	fs.Var(c.assets, "asset", "register a stored asset, name=path (repeatable)")
	fs.Int64Var(&c.capacity, "capacity-bps", 0, "admission-control uplink capacity in bits/s (0 = unlimited)")
	fs.StringVar(&c.origin, "origin", "", "origin base URL; serve as an edge relaying live channels and mirroring assets from it")
	fs.StringVar(&c.edgeURL, "edge", "", "advertised base URL of this node, required when registering with a registry")
	fs.StringVar(&c.registry, "registry", "", `cluster registry: a URL ("http://host:9090") registers this node with it, a listen address (":9090") hosts a registry there`)
	fs.StringVar(&c.stateDir, "state-dir", "", "directory where a hosted registry persists node membership and the content catalog; restored on restart (requires hosting the registry)")
	fs.DurationVar(&c.heartbeat, "heartbeat", 5*time.Second, "registry heartbeat interval")
	fs.BoolVar(&c.metricsOn, "metrics", true, "serve GET /metrics and GET /status on every role's listener")
	fs.BoolVar(&c.pprofOn, "pprof", false, "serve net/http/pprof under /debug/pprof/ on the main listener (profile a live node without restarting it)")
	fs.Int64Var(&c.cacheBytes, "cache-bytes", 0, "edge mirror cache capacity in payload bytes (0 = unbounded; requires -origin)")
	fs.StringVar(&c.cachePolicy, "cache-policy", "tinylfu", `edge mirror cache policy: "tinylfu" (frequency-gated admission) or "lru" (recency only; requires -origin)`)
	fs.IntVar(&c.cachePrewarm, "cache-prewarm", 12, "sketch-frequency threshold (1-15) at which an edge prefetches a hot asset's rate-group siblings; 0 disables prewarm (requires -origin)")
	fs.DurationVar(&c.drain, "drain", 10*time.Second, "how long to let in-flight sessions finish on SIGINT/SIGTERM before exiting")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if c.drain < 0 {
		return nil, fmt.Errorf("-drain must be >= 0, got %v", c.drain)
	}
	if c.registry != "" && !c.hostsRegistry() && c.edgeURL == "" {
		return nil, fmt.Errorf("-registry %s needs -edge with this node's advertised URL", c.registry)
	}
	if c.origin != "" && (c.demo || len(c.assets) > 0) {
		return nil, fmt.Errorf("an edge (-origin) mirrors origin assets; drop -demo/-asset")
	}
	if c.cacheBytes < 0 {
		return nil, fmt.Errorf("-cache-bytes must be >= 0, got %d", c.cacheBytes)
	}
	if c.cacheBytes > 0 && c.origin == "" {
		return nil, fmt.Errorf("-cache-bytes bounds the edge mirror cache; it requires -origin")
	}
	switch c.cachePolicy {
	case "tinylfu", "lru":
	default:
		return nil, fmt.Errorf(`-cache-policy must be "tinylfu" or "lru", got %q`, c.cachePolicy)
	}
	if c.cachePrewarm < 0 || c.cachePrewarm > 15 {
		return nil, fmt.Errorf("-cache-prewarm is a 4-bit sketch frequency (0-15), got %d", c.cachePrewarm)
	}
	if c.stateDir != "" && !c.hostsRegistry() {
		return nil, fmt.Errorf(`-state-dir persists registry state; it requires -registry with a listen address (":9090")`)
	}
	return c, nil
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "lodserver:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	c, err := parseConfig(args)
	if err != nil {
		return err
	}

	srv := streaming.NewServer(nil)
	srv.Pacing = c.pacing
	if c.capacity > 0 {
		srv.Admission = streaming.NewAdmission(c.capacity)
	}

	for name, path := range c.assets {
		f, err := os.Open(path)
		if err != nil {
			return fmt.Errorf("open asset %s: %w", name, err)
		}
		_, err = srv.RegisterAsset(name, asf.NewReader(f))
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return fmt.Errorf("register %s: %w", name, err)
		}
		fmt.Printf("registered asset %q from %s\n", name, path)
	}

	if c.demo {
		if err := registerDemo(srv); err != nil {
			return err
		}
		fmt.Println("registered generated asset \"demo\"")
	}

	handler := http.Handler(nil)
	var edge *relay.Edge
	if c.origin != "" {
		edge = relay.NewEdge(c.origin, srv)
		edge.CacheBytes = c.cacheBytes
		edge.ConfigureCache(edgecache.Config{
			Policy:           edgecache.Policy(c.cachePolicy),
			PrewarmThreshold: c.cachePrewarm,
		})
		handler = edge.Handler()
		fmt.Printf("edge mode: pulling through from origin %s\n", c.origin)
		if c.cacheBytes > 0 {
			fmt.Printf("edge mirror cache bounded at %d bytes (%s admission)\n", c.cacheBytes, c.cachePolicy)
		}
	} else {
		handler = srv.Handler()
	}
	if c.metricsOn || c.pprofOn {
		mux := http.NewServeMux()
		mux.Handle("/", handler)
		if c.metricsOn {
			srv.Metrics().Expose(mux)
		}
		if c.pprofOn {
			// Mounted explicitly rather than via DefaultServeMux so the
			// debug surface exists only when asked for.
			mux.HandleFunc("/debug/pprof/", netpprof.Index)
			mux.HandleFunc("/debug/pprof/cmdline", netpprof.Cmdline)
			mux.HandleFunc("/debug/pprof/profile", netpprof.Profile)
			mux.HandleFunc("/debug/pprof/symbol", netpprof.Symbol)
			mux.HandleFunc("/debug/pprof/trace", netpprof.Trace)
			fmt.Printf("pprof serving on %s/debug/pprof/\n", c.addr)
		}
		handler = mux
	}

	sigCtx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()

	errc := make(chan error, 2)
	if c.hostsRegistry() {
		store, err := catalog.Open(c.stateDir)
		if err != nil {
			return fmt.Errorf("open -state-dir: %w", err)
		}
		reg := relay.NewRegistryWithStore(nil, store)
		if c.stateDir != "" {
			fmt.Printf("registry state persisted under %s (restored version %d)\n",
				c.stateDir, reg.CatalogVersion())
		}
		regHandler := http.Handler(reg.Handler())
		if c.metricsOn {
			mux := http.NewServeMux()
			mux.Handle("/", regHandler)
			reg.Metrics().Expose(mux)
			regHandler = mux
		}
		fmt.Printf("cluster registry listening on %s\n", c.registry)
		go func() { errc <- http.ListenAndServe(c.registry, regHandler) }()
	} else if c.registry != "" {
		hb := &relay.Heartbeats{
			Registry: c.registry,
			Info:     relay.NodeInfo{ID: c.edgeURL, URL: c.edgeURL},
			Snapshot: func() relay.NodeStats { return relay.SnapshotStats(srv) },
			Interval: c.heartbeat,
		}
		if edge != nil {
			// Heartbeat answers carry the registry's catalog version; when
			// it moves, re-fetch the catalog and invalidate stale mirrors.
			hb.OnCatalog = func(uint64) {
				if err := edge.SyncCatalogFrom(nil, c.registry); err != nil {
					fmt.Fprintln(os.Stderr, "lodserver: catalog sync:", err)
				}
			}
		}
		fmt.Printf("registering %s with registry %s\n", c.edgeURL, c.registry)
		go func() { errc <- hb.Run(sigCtx) }()
	}

	fmt.Printf("LOD server listening on %s (assets: %v)\n", c.addr, srv.AssetNames())
	go func() { errc <- http.ListenAndServe(c.addr, handler) }()
	select {
	case err := <-errc:
		if sigCtx.Err() != nil {
			break // heartbeat loop reporting the signal cancellation
		}
		return err
	case <-sigCtx.Done():
	}
	return shutdown(c, srv)
}

// shutdown is the graceful exit: tell the registry first so no new
// client is redirected here, then refuse new sessions and let in-flight
// ones finish. Clients cut off anyway (drain deadline passed) fail over
// through the registry.
func shutdown(c *config, srv *streaming.Server) error {
	if c.registry != "" && !c.hostsRegistry() {
		fmt.Printf("deregistering %s from registry %s\n", c.edgeURL, c.registry)
		if err := relay.Deregister(nil, c.registry, c.edgeURL); err != nil {
			fmt.Fprintln(os.Stderr, "lodserver: deregister:", err)
		}
	}
	if c.drain <= 0 {
		return nil
	}
	fmt.Printf("draining sessions for up to %v\n", c.drain)
	ctx, cancel := context.WithTimeout(context.Background(), c.drain)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "lodserver:", err)
	}
	return nil
}

func registerDemo(srv *streaming.Server) error {
	profile, err := codec.ByName("dsl-300k")
	if err != nil {
		return err
	}
	lec, err := capture.NewLecture(capture.LectureConfig{
		Title: "Demo lecture", Duration: 60 * time.Second, Profile: profile,
		SlideCount: 12, AnnotationEvery: 20 * time.Second, Seed: 2002,
	})
	if err != nil {
		return err
	}
	pr, pw := newPipe()
	errc := make(chan error, 1)
	go func() {
		_, err := encoder.EncodeLecture(lec, encoder.Config{LeadTime: time.Second}, pw)
		pw.CloseWithError(err)
		errc <- err
	}()
	if _, err := srv.RegisterAsset("demo", asf.NewReader(pr)); err != nil {
		return err
	}
	return <-errc
}
