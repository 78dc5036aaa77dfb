package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/asf"
	"repro/internal/client"
	"repro/internal/edgecache"
	"repro/internal/loadgen"
	"repro/internal/metrics"
	"repro/internal/player"
)

// runConfig is one benchmark run of one workload.
type runConfig struct {
	w       workload
	seed    int64
	seconds float64
	// profile captures a CPU profile over the viewer window.
	profile bool
	tracer  *tracer
}

// viewerRecord is one viewer: when it was due, when RunSession was
// entered and returned (offsets from the window start), and what it
// measured.
type viewerRecord struct {
	kind            loadgen.Kind
	due, entry, end time.Duration
	res             loadgen.SessionResult
}

// publishRecord is one writer publish: the call, its acknowledgement,
// and the moment every edge had synced the acknowledged version.
type publishRecord struct {
	name               string
	call, ack, visible time.Duration
	version            uint64
	err                error
}

// probeRecord is one redirect probe.
type probeRecord struct {
	start, end time.Duration
	err        error
}

// window is everything one run measured, plus its correctness verdict.
type window struct {
	cfg        runConfig
	setupTimes []time.Duration
	wall       time.Duration
	viewers    []viewerRecord
	publishes  []publishRecord
	probes     []probeRecord

	cpu       time.Duration // process user+sys CPU over the window
	rt        runtimeDelta
	peakHeap  uint64
	profile   []byte
	originD   metrics.Snapshot
	registryD metrics.Snapshot
	edgeD     []metrics.Snapshot
	edgeIDs   []string
	caches    [][]edgecache.AssetStats

	failures []string // correctness-gate failures
}

// event kinds on the merged open-loop schedule.
const (
	evViewer = iota
	evPublish
	evProbe
)

type event struct {
	at   time.Duration
	kind int
	idx  int
}

// poissonTimes draws arrival offsets in [0, horizon) at rate per second.
func poissonTimes(rng *rand.Rand, rate float64, horizon time.Duration) []time.Duration {
	var out []time.Duration
	if rate <= 0 {
		return out
	}
	at := time.Duration(rng.ExpFloat64() / rate * float64(time.Second))
	for at < horizon {
		out = append(out, at)
		at += time.Duration(rng.ExpFloat64() / rate * float64(time.Second))
	}
	return out
}

// pickKinds draws each viewer's workload kind from the scenario mix,
// deterministically from the seed.
func pickKinds(s loadgen.Scenario, w workload, n int, seed int64) []loadgen.Kind {
	rng := rand.New(rand.NewSource(seed))
	total := 0
	for _, sh := range s.Mix {
		total += sh.Weight
	}
	kinds := make([]loadgen.Kind, n)
	for i := range kinds {
		r := rng.Intn(total)
		for _, sh := range s.Mix {
			if r < sh.Weight {
				kinds[i] = sh.Kind
				break
			}
			r -= sh.Weight
		}
		if w.watchEvery > 0 && kinds[i] == loadgen.KindLiveFan && i%w.watchEvery == w.watchEvery-1 {
			kinds[i] = loadgen.KindLive
		}
	}
	return kinds
}

// expectedVideoFrames decodes a stored asset straight from the origin's
// memory, outside any timed window: the number of video frames a
// full-length replay of it must deliver.
func expectedVideoFrames(c *loadgen.Cluster, name string) (int, error) {
	a, ok := c.Origin.Asset(name)
	if !ok {
		return 0, fmt.Errorf("origin has no asset %q", name)
	}
	var buf bytes.Buffer
	w, err := asf.NewWriter(&buf, a.Header)
	if err != nil {
		return 0, err
	}
	for _, p := range a.Packets {
		if _, err := w.WritePacket(p); err != nil {
			return 0, err
		}
	}
	if err := w.Close(); err != nil {
		return 0, err
	}
	m, err := player.New(player.Options{}).Play(&buf)
	if err != nil {
		return 0, fmt.Errorf("reference decode of %s: %w", name, err)
	}
	return m.VideoFrames, nil
}

// runWindow times setupsBefore cluster set-ups, drives one open-loop
// window against the last cluster, checks the outcome, and times
// setupsAfter more set-ups.
func runWindow(parent context.Context, cfg runConfig) (*window, error) {
	w := cfg.w
	tr := cfg.tracer
	spec := w.scenario + "&seed=" + strconv.FormatInt(cfg.seed, 10)
	s, err := loadgen.ParseScenario(spec)
	if err != nil {
		return nil, err
	}
	horizon := time.Duration(cfg.seconds * float64(time.Second))
	n := w.viewers(cfg.seconds)
	if n < 1 {
		return nil, fmt.Errorf("workload %s: %v s offers no viewers", w.name, cfg.seconds)
	}
	offsets, err := s.Arrival.Offsets(n, cfg.seed)
	if err != nil {
		return nil, err
	}
	// Live broadcasts outlive the last joiner by a full session, as in
	// loadgen.Run.
	liveFor := offsets[n-1] + s.AssetDuration + 2*time.Second
	ctx, cancel := context.WithTimeout(parent, liveFor+90*time.Second)
	defer cancel()

	win := &window{cfg: cfg}
	var c *loadgen.Cluster
	for i := 0; i < setupsBefore; i++ {
		cl, err := timedSetup(ctx, s, w.edges, liveFor, tr, win)
		if err != nil {
			return nil, err
		}
		if i < setupsBefore-1 {
			cl.Close()
			continue
		}
		c = cl
	}
	defer c.Close()

	wantFrames, err := expectedVideoFrames(c, c.AssetNames[0])
	if err != nil {
		return nil, err
	}

	// The merged open-loop schedule: viewers, publishes and probes, each
	// drawn from its own seeded stream.
	kinds := pickKinds(s, w, n, cfg.seed)
	pubRng := rand.New(rand.NewSource(cfg.seed + 1))
	pubTimes := poissonTimes(pubRng, w.publishesPerSec, horizon)
	pubNames := make([]string, len(pubTimes))
	var zipf *rand.Zipf
	if w.republishZipf > 0 {
		zipf = rand.NewZipf(rand.New(rand.NewSource(cfg.seed+2)), w.republishZipf, 1, uint64(len(c.AssetNames)-1))
	}
	for i := range pubNames {
		if zipf != nil {
			pubNames[i] = c.AssetNames[zipf.Uint64()]
		} else {
			pubNames[i] = "upload-" + strconv.Itoa(i)
		}
	}
	probeRng := rand.New(rand.NewSource(cfg.seed + 3))
	probeTimes := poissonTimes(probeRng, probesPerSec, horizon)
	probeTargets := make([]string, len(probeTimes))
	for i := range probeTargets {
		name := c.AssetNames[probeRng.Intn(len(c.AssetNames))]
		probeTargets[i] = loadgen.RegistryURL + client.Spec{Kind: client.VOD, Name: name}.Target()
	}
	events := make([]event, 0, n+len(pubTimes)+len(probeTimes))
	for i, at := range offsets {
		events = append(events, event{at, evViewer, i})
	}
	for i, at := range pubTimes {
		events = append(events, event{at, evPublish, i})
	}
	for i, at := range probeTimes {
		events = append(events, event{at, evProbe, i})
	}
	sort.SliceStable(events, func(i, j int) bool { return events[i].at < events[j].at })

	win.viewers = make([]viewerRecord, n)
	for i := range win.viewers {
		win.viewers[i] = viewerRecord{kind: kinds[i], due: offsets[i]}
	}
	win.publishes = make([]publishRecord, len(pubTimes))
	for i := range win.publishes {
		win.publishes[i] = publishRecord{name: pubNames[i]}
	}
	win.probes = make([]probeRecord, len(probeTimes))
	probeClient := &http.Client{
		Transport:     c.Client().Transport,
		CheckRedirect: func(*http.Request, []*http.Request) error { return http.ErrUseLastResponse },
	}
	acked := newAckLog()

	// Window baselines.
	c.MarkRegistryWindow()
	originPre := c.Origin.Metrics().Snapshot()
	edgePre := make([]metrics.Snapshot, len(c.Edges))
	for i, e := range c.Edges {
		edgePre[i] = e.Server.Metrics().Snapshot()
	}
	runtime.GC()
	rtPre := readRuntime()
	cpuPre := processCPU()
	var prof bytes.Buffer
	if cfg.profile {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return nil, fmt.Errorf("start cpu profile: %w", err)
		}
	}
	heap := startHeapSampler(10 * time.Millisecond)

	t0 := time.Now()
	since := func() time.Duration { return time.Since(t0) }
	base := tr.now() // span offsets of the window, relative to the tracer
	viewer := func(i int) {
		rec := &win.viewers[i]
		rec.entry = since()
		rec.res = c.RunSession(ctx, i, rec.kind)
		rec.end = since()
		id := "viewer-" + strconv.Itoa(i)
		tr.span(id, "viewer.queue", base+rec.due, base+rec.entry)
		tr.span(id, "viewer.session", base+rec.entry, base+rec.end)
	}
	publish := func(i int) {
		rec := &win.publishes[i]
		rec.call = since()
		rec.version, rec.err = c.Registry().PublishAsset(rec.name)
		rec.ack = since()
		id := "publish-" + strconv.Itoa(i)
		tr.span(id, "control.publish", base+rec.call, base+rec.ack)
		if rec.err != nil {
			return
		}
		acked.add(rec.name, rec.version)
		rec.err = awaitEdges(ctx, c, rec.version, 5*time.Second)
		rec.visible = since()
		tr.span(id, "control.propagate", base+rec.ack, base+rec.visible)
	}
	probe := func(i int) {
		rec := &win.probes[i]
		rec.start = since()
		rec.err = redirectProbe(ctx, probeClient, probeTargets[i])
		rec.end = since()
		tr.span("probe-"+strconv.Itoa(i), "probe.redirect", base+rec.start, base+rec.end)
	}

	// At most GOMAXPROCS dispatchers release the schedule; each event
	// runs on its own goroutine, so a slow session never delays the
	// next arrival.
	dispatchers := runtime.GOMAXPROCS(0)
	var dispatchWG, handlerWG sync.WaitGroup
	for d := 0; d < dispatchers; d++ {
		dispatchWG.Add(1)
		go func(d int) {
			defer dispatchWG.Done()
			for i := d; i < len(events); i += dispatchers {
				ev := events[i]
				if wait := ev.at - since(); wait > 0 {
					time.Sleep(wait)
				}
				handlerWG.Add(1)
				go func() {
					defer handlerWG.Done()
					switch ev.kind {
					case evViewer:
						viewer(ev.idx)
					case evPublish:
						publish(ev.idx)
					case evProbe:
						probe(ev.idx)
					}
				}()
			}
		}(d)
	}
	dispatchWG.Wait()
	handlerWG.Wait()
	win.wall = since()

	win.peakHeap = heap.stop()
	if cfg.profile {
		pprof.StopCPUProfile()
		win.profile = prof.Bytes()
	}
	win.cpu = processCPU() - cpuPre
	win.rt = readRuntime().sub(rtPre)

	win.registryD = c.RegistryWindowDelta()
	win.originD = c.Origin.Metrics().Snapshot().Delta(originPre)
	win.edgeIDs = c.EdgeIDs
	for i, e := range c.Edges {
		win.edgeD = append(win.edgeD, e.Server.Metrics().Snapshot().Delta(edgePre[i]))
		win.caches = append(win.caches, e.CacheStats())
	}

	// The correctness gate runs after the window closes.
	win.failures = checkWindow(ctx, c, win, wantFrames, acked)

	// The rest of the set-ups are timed after the run, so a stretch of
	// disk or CPU contention from elsewhere on the machine at one end of
	// the run moves at most half of them. Close is idempotent.
	c.Close()
	for i := 0; i < setupsAfter; i++ {
		cl, err := timedSetup(ctx, s, w.edges, liveFor, tr, win)
		if err != nil {
			return nil, err
		}
		cl.Close()
	}
	return win, nil
}

// timedSetup builds and readies one cluster, recording its set-up time
// in win and its spans in tr.
func timedSetup(ctx context.Context, s loadgen.Scenario, edges int, liveFor time.Duration, tr *tracer, win *window) (*loadgen.Cluster, error) {
	trace := "setup-" + strconv.Itoa(len(win.setupTimes))
	// Collect the clusters already closed, so their garbage is not swept
	// inside this timing.
	runtime.GC()
	t0 := tr.now()
	c, err := loadgen.StartCluster(ctx, s, edges, liveFor)
	if err != nil {
		return nil, fmt.Errorf("start cluster: %w", err)
	}
	t1 := tr.now()
	err = c.AwaitReady(10 * time.Second)
	t2 := tr.now()
	tr.span(trace, "setup.start_cluster", t0, t1)
	tr.span(trace, "setup.await_ready", t1, t2)
	if err != nil {
		c.Close()
		return nil, err
	}
	win.setupTimes = append(win.setupTimes, t2-t0)
	return c, nil
}

// awaitEdges waits until every edge has synced catalog version v.
func awaitEdges(ctx context.Context, c *loadgen.Cluster, v uint64, limit time.Duration) error {
	deadline := time.Now().Add(limit)
	for {
		behind := ""
		for i, e := range c.Edges {
			if e.CatalogVersion() < v {
				behind = c.EdgeIDs[i]
				break
			}
		}
		if behind == "" {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s still behind catalog version %d after %v", behind, v, limit)
		}
		if ctx.Err() != nil {
			return ctx.Err()
		}
		time.Sleep(time.Millisecond)
	}
}

// redirectProbe asks the registry for a stream and expects a redirect
// to an edge, without following it.
func redirectProbe(ctx context.Context, hc *http.Client, target string) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, target, nil)
	if err != nil {
		return err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return err
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusTemporaryRedirect || resp.Header.Get("Location") == "" {
		return fmt.Errorf("redirect probe %s: status %s", target, resp.Status)
	}
	return nil
}

// ackLog remembers the newest acknowledged catalog version per name.
type ackLog struct {
	mu  sync.Mutex
	rev map[string]uint64
	max uint64
}

func newAckLog() *ackLog { return &ackLog{rev: make(map[string]uint64)} }

func (a *ackLog) add(name string, v uint64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if v > a.rev[name] {
		a.rev[name] = v
	}
	if v > a.max {
		a.max = v
	}
}
