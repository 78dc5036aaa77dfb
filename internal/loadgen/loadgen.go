// Package loadgen is the cluster-scale load-generation harness: it
// drives swarms of virtual clients — mixed VOD, seek, multi-rate-group
// and live workloads under configurable arrival processes and
// per-client link shaping — against a real in-process streaming
// cluster (origin + registry + N edges), and folds what happened into
// one machine-readable benchmark record (BENCH_*.json, schema
// documented in BENCHMARKS.md).
//
// Everything runs inside one process but over real HTTP: the cluster
// roles listen on a netsim.MemNet (net.Pipe connections, so thousands
// of concurrent sessions never touch a TCP port), clients follow the
// registry's 307 redirects exactly like production clients, and edges
// pull through from the origin and heartbeat their load like
// cmd/lodserver wires them. Client-side behaviour is the real
// internal/player in realtime mode (anchored to the first packet), so
// stalls are genuine rebuffer events; cluster-side numbers are metric
// snapshot deltas (metrics.Snapshot) over the run window, so they
// isolate exactly the benchmark's traffic.
//
// The entry point is Run; cmd/lodbench wraps it:
//
//	lodbench -scenario mixed -clients 1000 -edges 3
//
// Scenarios are deterministic in their choices (workload mix, arrival
// offsets, seek positions, link jitter are all seeded); the measured
// latencies are wall-clock and vary by machine, which is the point —
// record them per machine in EXPERIMENTS.md.
package loadgen

import (
	"fmt"
	"math/rand"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/netsim"
	"repro/internal/vclock"
)

// Kind names one virtual-client workload.
type Kind string

// Workload kinds.
const (
	// KindVOD plays a stored asset front to back.
	KindVOD Kind = "vod"
	// KindSeek plays a stored asset from a seeded ?start offset.
	KindSeek Kind = "seek"
	// KindGroup requests a multi-rate group with the client's link
	// bandwidth and plays whichever variant the server selects.
	KindGroup Kind = "group"
	// KindLive joins a live broadcast and plays until it ends.
	KindLive Kind = "live"
	// KindLiveFan joins a live broadcast and drains the raw container
	// as fast as the server can write it — no player, no pacing, no
	// packet parsing. Fan-out capacity benchmarks use it so the
	// server's per-subscriber write path is the bottleneck being
	// measured, not the broadcast's presentation rate.
	KindLiveFan Kind = "livefan"
)

// Share is one weighted entry of a scenario's workload mix.
type Share struct {
	Kind   Kind `json:"kind"`
	Weight int  `json:"weight"`
}

// ChurnSpec schedules edge kills (and optional restarts) over a run:
// the scenario's churn driver abruptly stops an edge — severing its
// in-flight sessions and silencing its heartbeats, exactly like a
// crashed process — at FirstKill after the swarm starts and every Every
// thereafter, rotating round-robin over the cluster's edges. When
// RestartAfter is positive the killed edge comes back up and re-registers
// that long after each kill; the driver is sequential, so at most one
// edge is down at a time and the cluster always has somewhere to fail
// over to. Zero Kills disables churn.
//
// KillRegistry redirects the whole schedule at the control plane: each
// kill takes down the registry instead of an edge, and RestartAfter
// later a brand-new registry instance comes up restored from the
// durable catalog snapshot (Cluster.RestartRegistry). RestartAfter must
// be positive in that mode — a run cannot end without a registry to
// snapshot.
type ChurnSpec struct {
	Kills        int           `json:"kills"`
	FirstKill    time.Duration `json:"-"`
	Every        time.Duration `json:"-"`
	RestartAfter time.Duration `json:"-"`
	KillRegistry bool          `json:"killRegistry,omitempty"`
}

// Enabled reports whether the spec schedules any kills.
func (c ChurnSpec) Enabled() bool { return c.Kills > 0 }

// Arrival describes how client session starts are spread over time.
type Arrival struct {
	// Process is "poisson" (exponential gaps), "uniform" (fixed gaps),
	// or "burst" (groups of Burst arriving together).
	Process string `json:"process"`
	// Rate is the long-run arrival rate in clients per second.
	Rate float64 `json:"ratePerSec"`
	// Burst is the group size for the "burst" process.
	Burst int `json:"burst,omitempty"`
}

// Scenario is one named, fully parameterized workload. All choices a
// scenario makes (mix, arrivals, seeks, link jitter) derive from Seed,
// so two runs of the same scenario issue the same requests in the same
// pattern; only the measured timings differ.
type Scenario struct {
	Name        string `json:"name"`
	Description string `json:"description"`

	// Content on the origin.
	Assets        int           `json:"assets"`       // stored lectures lec-0..lec-{n-1}
	AssetDuration time.Duration `json:"-"`            // presentation length of each
	Profile       string        `json:"profile"`      // base codec profile
	RichProfile   string        `json:"richProfile"`  // rich variant for groups
	Groups        int           `json:"groups"`       // multi-rate groups grp-0..
	LiveChannels  int           `json:"liveChannels"` // live broadcasts live-0..
	Slides        int           `json:"slides"`       // slides per lecture
	// LeadTime is how far ahead of each packet's presentation time the
	// content allows the server to send it (encoder.Config.LeadTime).
	// Zero means a zero-slack schedule where any transit jitter counts
	// as a stall; realistic scenarios give the client buffer some
	// send-ahead to absorb jitter, so stalls mean the cluster fell
	// behind, not that the schedule was unmeetable by construction.
	LeadTime time.Duration `json:"-"`

	// Client behaviour.
	Mix               []Share     `json:"mix"`
	Arrival           Arrival     `json:"arrival"`
	Link              netsim.Link `json:"-"`                  // per-client prototype; cloned per client
	ClientBandwidth   int64       `json:"clientBandwidthBps"` // declared on /group?bw=
	JitterBufferDepth int         `json:"jitterBufferDepth"`
	// FailoverAttempts is how many extra registry round trips a client
	// makes after an edge refuses its connection, answers 5xx, or drops
	// the stream mid-session — VOD resumes at the last received media
	// offset via ?start=. Zero disables failover: the first failure
	// fails the session.
	FailoverAttempts int `json:"failoverAttempts"`
	// FailoverBackoff is the base of the bounded exponential backoff
	// between attempts (vclock.Backoff).
	FailoverBackoff time.Duration `json:"-"`
	// Popularity weights which stored asset (and group or live channel)
	// each client demands: "" or "uniform" (every name equally likely),
	// "zipf:s=<s>[,v=<v>]" (Zipf-distributed ranks, lec-0 the most
	// popular), or "hot:frac=<f>" (probability f of the single hot
	// name, uniform otherwise). See popularity.go for the grammar.
	Popularity string `json:"popularity,omitempty"`

	// Cluster knobs.
	// CachePolicy selects the edges' mirror-cache policy: "" or
	// "tinylfu" (the default frequency-gated admission), or "lru"
	// (recency-only eviction — the baseline the flashcrowd benchmark
	// pair compares against).
	CachePolicy string `json:"cachePolicy,omitempty"`

	CacheBytes int64 `json:"cacheBytes"` // per-edge mirror budget; 0 = unbounded
	// Churn kills (and restarts) edges mid-run; see ChurnSpec. Running a
	// churn scenario needs at least two edges.
	Churn ChurnSpec `json:"churn"`

	// Clock drives every wait the harness itself makes — arrival
	// offsets, churn schedules, readiness polls, heartbeats, failover
	// backoff, and the first-byte/startup stamps. Nil uses the real
	// clock; a simulated clock makes the whole run schedule
	// deterministic. Not part of the scenario's identity, so it is
	// excluded from the JSON record.
	Clock vclock.Clock `json:"-"`

	Seed int64 `json:"seed"`
}

// clock returns the scenario's clock, defaulting to the wall clock.
func (s Scenario) clock() vclock.Clock {
	if s.Clock != nil {
		return s.Clock
	}
	return vclock.Real{}
}

// Validate reports the first structural problem with the scenario.
func (s Scenario) Validate() error {
	switch {
	case s.Name == "":
		return fmt.Errorf("loadgen: scenario has no name")
	case s.Assets < 1:
		return fmt.Errorf("loadgen: scenario %s: needs at least one asset", s.Name)
	case s.AssetDuration <= 0:
		return fmt.Errorf("loadgen: scenario %s: asset duration %v", s.Name, s.AssetDuration)
	case s.LeadTime < 0:
		return fmt.Errorf("loadgen: scenario %s: negative lead time %v", s.Name, s.LeadTime)
	case len(s.Mix) == 0:
		return fmt.Errorf("loadgen: scenario %s: empty workload mix", s.Name)
	case s.FailoverAttempts < 0:
		return fmt.Errorf("loadgen: scenario %s: negative failover attempts %d", s.Name, s.FailoverAttempts)
	case s.FailoverBackoff < 0:
		return fmt.Errorf("loadgen: scenario %s: negative failover backoff %v", s.Name, s.FailoverBackoff)
	case s.Churn.Kills < 0:
		return fmt.Errorf("loadgen: scenario %s: negative churn kills %d", s.Name, s.Churn.Kills)
	case s.Churn.FirstKill < 0 || s.Churn.RestartAfter < 0:
		return fmt.Errorf("loadgen: scenario %s: negative churn delay", s.Name)
	case s.Churn.Kills > 1 && s.Churn.Every <= 0:
		return fmt.Errorf("loadgen: scenario %s: %d churn kills need a positive interval", s.Name, s.Churn.Kills)
	case s.Churn.KillRegistry && s.Churn.Kills > 0 && s.Churn.RestartAfter <= 0:
		return fmt.Errorf("loadgen: scenario %s: registry churn needs a positive restartafter", s.Name)
	}
	total := 0
	for _, sh := range s.Mix {
		if sh.Weight <= 0 {
			return fmt.Errorf("loadgen: scenario %s: non-positive weight for %q", s.Name, sh.Kind)
		}
		switch sh.Kind {
		case KindVOD, KindSeek, KindGroup, KindLive, KindLiveFan:
		default:
			return fmt.Errorf("loadgen: scenario %s: unknown workload kind %q", s.Name, sh.Kind)
		}
		if sh.Kind == KindGroup && s.Groups < 1 {
			return fmt.Errorf("loadgen: scenario %s: group workload but no groups", s.Name)
		}
		if (sh.Kind == KindLive || sh.Kind == KindLiveFan) && s.LiveChannels < 1 {
			return fmt.Errorf("loadgen: scenario %s: live workload but no live channels", s.Name)
		}
		total += sh.Weight
	}
	if total <= 0 {
		return fmt.Errorf("loadgen: scenario %s: zero total mix weight", s.Name)
	}
	if _, err := parsePopularity(s.Popularity); err != nil {
		return fmt.Errorf("loadgen: scenario %s: %v", s.Name, err)
	}
	switch s.CachePolicy {
	case "", "tinylfu", "lru":
	default:
		return fmt.Errorf("loadgen: scenario %s: unknown cache policy %q (have tinylfu, lru)", s.Name, s.CachePolicy)
	}
	if err := s.Link.Validate(); err != nil {
		return err
	}
	if _, err := s.Arrival.Offsets(1, s.Seed); err != nil {
		return err
	}
	return nil
}

// pickKind draws one workload kind from the mix.
func (s Scenario) pickKind(rng *rand.Rand) Kind {
	total := 0
	for _, sh := range s.Mix {
		total += sh.Weight
	}
	n := rng.Intn(total)
	for _, sh := range s.Mix {
		if n < sh.Weight {
			return sh.Kind
		}
		n -= sh.Weight
	}
	return s.Mix[len(s.Mix)-1].Kind
}

// Scenarios returns the named scenarios, sorted by name. "mixed" is the
// cluster benchmark of record; "smoke" is the seconds-long CI variant;
// "churn" kills and restarts edges mid-run and demands the swarm
// survive via failover. Every scenario gives clients a few failover
// attempts so a transient refusal doesn't fail an otherwise-healthy
// run.
func Scenarios() []Scenario {
	out := []Scenario{
		{
			Name:        "churn",
			Description: "edges killed and restarted mid-run; sessions must survive via registry failover and ?start resume",
			Assets:      4, AssetDuration: 4 * time.Second,
			Profile: "modem-56k", LiveChannels: 1, Slides: 3,
			Mix: []Share{
				{KindVOD, 60}, {KindSeek, 25}, {KindLive, 15},
			},
			Arrival:           Arrival{Process: "poisson", Rate: 100},
			Link:              netsim.Link{BitsPerSecond: 2_000_000, Latency: 5 * time.Millisecond, Jitter: 2 * time.Millisecond},
			JitterBufferDepth: 2,
			LeadTime:          500 * time.Millisecond,
			FailoverAttempts:  6, FailoverBackoff: 100 * time.Millisecond,
			Churn: ChurnSpec{Kills: 2, FirstKill: time.Second, Every: 2 * time.Second, RestartAfter: 1500 * time.Millisecond},
			Seed:  1,
		},
		{
			Name: "fanout",
			Description: "raw-drain live fan-out: every client rips one broadcast as fast as the server can write it; " +
				"measures per-packet serving cost (perf block is the headline)",
			Assets:        1, // content template for the broadcast; no VOD traffic
			AssetDuration: 3 * time.Second,
			Profile:       "dsl-300k", LiveChannels: 1, Slides: 2,
			Mix: []Share{{KindLiveFan, 100}},
			// Everyone piles in at once so the whole broadcast runs at
			// full subscriber count. No link shaping: a modeled last
			// mile would become the bottleneck instead of the serving
			// path.
			Arrival:          Arrival{Process: "burst", Rate: 2000, Burst: 500},
			LeadTime:         300 * time.Millisecond,
			FailoverAttempts: 3, FailoverBackoff: 50 * time.Millisecond,
			Seed: 1,
		},
		{
			Name: "flashcrowd",
			Description: "a flash crowd piles onto a few hot lectures through a tight edge cache; admission must keep " +
				"the hot set resident against long-tail churn and miss coalescing must collapse the duplicate origin pulls " +
				"(cache.originBytes and cache.perAsset maxEdgePulls are the headline; run with cachepolicy=lru for the baseline pair)",
			Assets: 96, AssetDuration: 800 * time.Millisecond,
			Profile: "modem-56k", Slides: 2,
			Mix: []Share{{KindVOD, 100}},
			// The pile-up spans many session lifetimes, so mid-tail assets
			// go idle (unpinned) between demands — the window where capacity
			// pressure can evict them and admission policy decides whether
			// the one-hit-wonder tail churns them out. Actively streamed
			// assets are pinned under either policy, so the pair isolates
			// the replacement decision, not crash-protection.
			Arrival:          Arrival{Process: "flash", Rate: 40},
			Link:             netsim.Link{BitsPerSecond: 10_000_000, Latency: 2 * time.Millisecond},
			Popularity:       "zipf:s=1.4",
			CacheBytes:       768 << 10, // ~a quarter of one edge's catalog share
			LeadTime:         300 * time.Millisecond,
			FailoverAttempts: 3, FailoverBackoff: 50 * time.Millisecond,
			Seed: 1,
		},
		{
			Name:        "mixed",
			Description: "the cluster benchmark of record: VOD + seek + multi-rate + live against origin/registry/edges",
			Assets:      6, AssetDuration: 4 * time.Second,
			Profile: "modem-56k", RichProfile: "dsl-300k",
			Groups: 2, LiveChannels: 1, Slides: 3,
			Mix: []Share{
				{KindVOD, 50}, {KindSeek, 15}, {KindGroup, 20}, {KindLive, 15},
			},
			Arrival:         Arrival{Process: "poisson", Rate: 150},
			Link:            netsim.Link{BitsPerSecond: 768_000, Latency: 15 * time.Millisecond, Jitter: 5 * time.Millisecond},
			ClientBandwidth: 768_000, JitterBufferDepth: 4,
			LeadTime:         500 * time.Millisecond,
			FailoverAttempts: 3, FailoverBackoff: 100 * time.Millisecond,
			Seed: 1,
		},
		{
			Name:        "vod",
			Description: "pure stored-asset replay; isolates mirror pull-through and edge cache behaviour",
			Assets:      8, AssetDuration: 4 * time.Second,
			Profile: "modem-56k", Slides: 3,
			Mix:              []Share{{KindVOD, 100}},
			Arrival:          Arrival{Process: "poisson", Rate: 200},
			Link:             netsim.Link{BitsPerSecond: 2_000_000, Latency: 5 * time.Millisecond, Jitter: 2 * time.Millisecond},
			LeadTime:         500 * time.Millisecond,
			FailoverAttempts: 3, FailoverBackoff: 100 * time.Millisecond,
			Seed: 1,
		},
		{
			Name:        "seek",
			Description: "seek-heavy replay; stresses the keyframe index and anchored tail playback",
			Assets:      4, AssetDuration: 6 * time.Second,
			Profile: "modem-56k", Slides: 4,
			Mix:              []Share{{KindVOD, 30}, {KindSeek, 70}},
			Arrival:          Arrival{Process: "uniform", Rate: 150},
			Link:             netsim.Link{BitsPerSecond: 2_000_000, Latency: 5 * time.Millisecond},
			LeadTime:         500 * time.Millisecond,
			FailoverAttempts: 3, FailoverBackoff: 100 * time.Millisecond,
			Seed: 1,
		},
		{
			Name:        "live",
			Description: "flash-crowd joins of live broadcasts; stresses relay fan-out and catch-up bursts",
			Assets:      1, AssetDuration: 4 * time.Second,
			Profile: "modem-56k", LiveChannels: 2, Slides: 2,
			Mix:              []Share{{KindLive, 100}},
			Arrival:          Arrival{Process: "burst", Rate: 150, Burst: 50},
			Link:             netsim.Link{BitsPerSecond: 2_000_000, Latency: 10 * time.Millisecond, Jitter: 5 * time.Millisecond},
			LeadTime:         500 * time.Millisecond,
			FailoverAttempts: 3, FailoverBackoff: 100 * time.Millisecond,
			Seed: 1,
		},
		{
			Name: "registrychurn",
			Description: "the registry is killed mid-run and restarted from its durable catalog snapshot; " +
				"sessions must ride out the control-plane outage on their failover budget and the restored " +
				"registry must serve redirects from restored membership before any edge re-heartbeats " +
				"(cluster.snapshotRedirects is the headline)",
			Assets: 6, AssetDuration: 4 * time.Second,
			Profile: "modem-56k", RichProfile: "dsl-300k",
			Groups: 2, LiveChannels: 1, Slides: 3,
			Mix: []Share{
				{KindVOD, 50}, {KindSeek, 15}, {KindGroup, 20}, {KindLive, 15},
			},
			Arrival:         Arrival{Process: "poisson", Rate: 100},
			Link:            netsim.Link{BitsPerSecond: 2_000_000, Latency: 5 * time.Millisecond, Jitter: 2 * time.Millisecond},
			ClientBandwidth: 768_000, JitterBufferDepth: 4,
			LeadTime: 500 * time.Millisecond,
			// A generous retry budget: clients arriving during the outage
			// must outlast it (bounded backoff sums to well past the
			// 1.2s restart window).
			FailoverAttempts: 8, FailoverBackoff: 100 * time.Millisecond,
			Churn: ChurnSpec{Kills: 1, FirstKill: 2 * time.Second, RestartAfter: 1200 * time.Millisecond, KillRegistry: true},
			Seed:  1,
		},
		{
			Name: "scale",
			Description: "10× the cluster: tens of thousands of mixed-workload clients over a 16-edge fleet; " +
				"exercises the sharded load drivers and the registry's consistent-hash redirect path " +
				"(cluster.redirectsPerSec and the shards block are the headline)",
			Assets: 32, AssetDuration: 2 * time.Second,
			Profile: "modem-56k", RichProfile: "dsl-300k",
			Groups: 4, LiveChannels: 2, Slides: 2,
			Mix: []Share{
				{KindVOD, 55}, {KindSeek, 20}, {KindGroup, 15}, {KindLive, 10},
			},
			// A fast arrival ramp so the fleet holds thousands of
			// concurrent sessions; a light link keeps the modeled last
			// mile from becoming the bottleneck being measured.
			Arrival:         Arrival{Process: "poisson", Rate: 1200},
			Link:            netsim.Link{BitsPerSecond: 10_000_000, Latency: 2 * time.Millisecond},
			ClientBandwidth: 768_000, JitterBufferDepth: 2,
			LeadTime:         500 * time.Millisecond,
			FailoverAttempts: 3, FailoverBackoff: 50 * time.Millisecond,
			Seed: 1,
		},
		{
			Name:        "smoke",
			Description: "seconds-long CI mixed workload over a bounded edge cache",
			Assets:      3, AssetDuration: 1500 * time.Millisecond,
			Profile: "modem-56k", RichProfile: "isdn-128k",
			Groups: 1, LiveChannels: 1, Slides: 2,
			Mix: []Share{
				{KindVOD, 50}, {KindSeek, 20}, {KindGroup, 20}, {KindLive, 10},
			},
			Arrival:         Arrival{Process: "uniform", Rate: 120},
			Link:            netsim.Link{BitsPerSecond: 10_000_000, Latency: 2 * time.Millisecond},
			ClientBandwidth: 128_000, JitterBufferDepth: 2,
			CacheBytes:       1 << 20,
			LeadTime:         300 * time.Millisecond,
			FailoverAttempts: 3, FailoverBackoff: 50 * time.Millisecond,
			Seed: 1,
		},
		{
			Name: "zipf",
			Description: "Zipf-popular VOD over a long-tail catalog and a tight edge cache; frequency-gated admission " +
				"must hold the hot head resident against one-hit-wonder tail churn " +
				"(cache.hitRate vs a cachepolicy=lru baseline is the headline)",
			Assets: 192, AssetDuration: 800 * time.Millisecond,
			Profile: "modem-56k", RichProfile: "isdn-128k",
			Groups: 2, Slides: 2,
			Mix:              []Share{{KindVOD, 85}, {KindGroup, 15}},
			Arrival:          Arrival{Process: "poisson", Rate: 60},
			Link:             netsim.Link{BitsPerSecond: 10_000_000, Latency: 2 * time.Millisecond},
			Popularity:       "zipf:s=1.3",
			CacheBytes:       768 << 10, // well under the catalog's footprint
			LeadTime:         300 * time.Millisecond,
			FailoverAttempts: 3, FailoverBackoff: 50 * time.Millisecond,
			Seed: 1,
		},
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// ParseScenario resolves a scenario spec: a scenario name, optionally
// followed by query-style overrides, e.g.
//
//	mixed
//	mixed?assets=12&duration=2s&process=burst&rate=400&burst=100&seed=7
//
// Recognized override keys: assets, duration, process, rate, burst,
// seed, leadtime, cachebytes, popularity (the asset-popularity model,
// e.g. popularity=zipf:s=1.1), cachepolicy (tinylfu or lru), failover
// (retry attempts), backoff, kills, firstkill, every, restartafter,
// killregistry (the churn schedule). Unknown names and keys are
// errors, as are overrides that leave the scenario invalid.
func ParseScenario(spec string) (Scenario, error) {
	name, query, hasQuery := strings.Cut(spec, "?")
	var sc Scenario
	found := false
	for _, s := range Scenarios() {
		if s.Name == name {
			sc, found = s, true
			break
		}
	}
	if !found {
		names := make([]string, 0)
		for _, s := range Scenarios() {
			names = append(names, s.Name)
		}
		return Scenario{}, fmt.Errorf("loadgen: unknown scenario %q (have %s)", name, strings.Join(names, ", "))
	}
	if hasQuery {
		vals, err := url.ParseQuery(query)
		if err != nil {
			return Scenario{}, fmt.Errorf("loadgen: scenario overrides: %w", err)
		}
		for key, vv := range vals {
			v := vv[len(vv)-1]
			var err error
			switch key {
			case "assets":
				sc.Assets, err = strconv.Atoi(v)
			case "duration":
				sc.AssetDuration, err = time.ParseDuration(v)
			case "process":
				sc.Arrival.Process = v
			case "rate":
				sc.Arrival.Rate, err = strconv.ParseFloat(v, 64)
			case "burst":
				sc.Arrival.Burst, err = strconv.Atoi(v)
			case "seed":
				sc.Seed, err = strconv.ParseInt(v, 10, 64)
			case "leadtime":
				sc.LeadTime, err = time.ParseDuration(v)
			case "cachebytes":
				sc.CacheBytes, err = strconv.ParseInt(v, 10, 64)
			case "popularity":
				sc.Popularity = v
			case "cachepolicy":
				sc.CachePolicy = v
			case "failover":
				sc.FailoverAttempts, err = strconv.Atoi(v)
			case "backoff":
				sc.FailoverBackoff, err = time.ParseDuration(v)
			case "kills":
				sc.Churn.Kills, err = strconv.Atoi(v)
			case "firstkill":
				sc.Churn.FirstKill, err = time.ParseDuration(v)
			case "every":
				sc.Churn.Every, err = time.ParseDuration(v)
			case "restartafter":
				sc.Churn.RestartAfter, err = time.ParseDuration(v)
			case "killregistry":
				sc.Churn.KillRegistry, err = strconv.ParseBool(v)
			default:
				return Scenario{}, fmt.Errorf("loadgen: unknown scenario override %q", key)
			}
			if err != nil {
				return Scenario{}, fmt.Errorf("loadgen: scenario override %s=%q: %v", key, v, err)
			}
		}
	}
	if err := sc.Validate(); err != nil {
		return Scenario{}, err
	}
	return sc, nil
}
