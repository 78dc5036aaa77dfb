package main

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// workload is one traffic mix the benchmark drives against an
// in-process cluster. Viewers, publishes and redirect probes all follow
// open-loop schedules drawn from the run's seed: nothing waits for the
// system, so a slow system faces the same offered load as a fast one.
type workload struct {
	name string
	why  string
	// scenario is the loadgen scenario spec (name plus overrides); the
	// run's seed is appended as a seed= override.
	scenario string
	edges    int
	// viewersPerSec is the arrival rate; a run offers
	// viewersPerSec × seconds viewers.
	viewersPerSec float64
	// watchEvery, when positive, makes every watchEvery-th viewer of a
	// raw-drain live mix a playing live viewer instead, so QoE is
	// measured where the fan-out is happening.
	watchEvery int
	// publishesPerSec is the writer's Poisson rate. republishZipf > 0
	// republishes viewed lectures drawn with that Zipf exponent (which
	// invalidates mirrors in use); otherwise the writer announces new
	// lectures no viewer has asked for yet.
	publishesPerSec float64
	republishZipf   float64
	// restartRegistry makes the correctness gate kill and restart the
	// registry after the run and look for every acknowledged publish in
	// the restored catalog.
	restartRegistry bool
}

// probesPerSec is the rate of redirect probes: registry requests sent
// with redirects not followed, which time the redirect alone.
const probesPerSec = 20

// A run builds a cluster setupsBefore times before its window (the last
// one serves the window) and setupsAfter times after it, timing each;
// setup_s is the median. Set-up takes tens to hundreds of milliseconds,
// so a single timing is too noisy to gate on.
const (
	setupsBefore = 8
	setupsAfter  = 7
)

// longtailZipf is the Zipf exponent shared by longtail_publish viewers
// (through the scenario's popularity override) and its writer.
const longtailZipf = 1.3

var workloads = []workload{
	{
		name: "lecture_replay",
		why: "The paper's steady state: thousands of students replaying lectures over 16 edges, " +
			"so per-packet work dominates and cache misses and catalog writes are nearly absent.",
		scenario:        "scale?rate=200",
		edges:           16,
		viewersPerSec:   200,
		publishesPerSec: 1,
	},
	{
		name: "live_fanout",
		why: "One edge fans a live lecture out to raw-drain subscribers plus a few playing viewers, " +
			"isolating the serving write path from cache, catalog and client decode.",
		scenario:        "fanout?process=poisson&rate=50&duration=5s",
		edges:           1,
		viewersPerSec:   50,
		watchEvery:      10,
		publishesPerSec: 1,
	},
	{
		name: "longtail_publish",
		why: "Zipf-popular short lectures over a tight cache on 4 edges while lectures are republished " +
			"into a durable catalog, so cache fills, evictions, pulls and catalog writes dominate.",
		scenario:        fmt.Sprintf("zipf?rate=150&killregistry=true&kills=0&popularity=zipf:s=%g", longtailZipf),
		edges:           4,
		viewersPerSec:   150,
		publishesPerSec: 4,
		republishZipf:   longtailZipf,
		restartRegistry: true,
	},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %s, all)", name, strings.Join(names, ", "))
}

// viewers is the number of viewers a run of the given length offers.
func (w workload) viewers(seconds float64) int {
	return int(math.Round(w.viewersPerSec * seconds))
}

// metricSpec describes one reported metric.
type metricSpec struct {
	name   string
	unit   string
	better string // "lower" or "higher"
	// bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change counts as a regression.
	bound float64
}

// endToEnd are the metrics a viewer or operator of the system sees,
// measured with tracing off. Each is non-zero on every workload and
// steady from run to run on a shared 2-CPU machine. Startup, presentation
// skew, stall counts and publish visibility are not: they swing with
// millisecond timer and scheduler noise, or read 0 on a healthy run.
// They are reported per layer, without a bound.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"stall_free_share", "fraction", "higher", 0.1},
	{"cpu_ns_per_packet", "ns", "lower", 0.25},
	{"peak_heap_mb", "MB", "lower", 0.25},
	{"origin_mb_per_1k_sessions", "MB", "lower", 0.2},
}

// perLayerPackages are the internal packages the traced run attributes
// CPU profile samples to; "runtime" collects samples with no
// repro/internal frame and "other" those of the remaining internal
// packages.
var perLayerPackages = []string{
	"asf", "streaming", "relay", "edgecache", "catalog", "client",
	"player", "netsim", "vclock", "metrics", "loadgen", "other", "runtime",
}

// perLayer are the metrics of single layers, measured in the traced run.
var perLayer = func() []metricSpec {
	out := []metricSpec{
		{"loadgen.gen_lag_ms_p99", "ms", "lower", 0},
		{"loadgen.cpu_util", "fraction", "lower", 0},
		{"loadgen.saturated", "flag", "lower", 0},
		{"loadgen.late", "flag", "lower", 0},
		{"runtime.gc_cpu_share", "fraction", "lower", 0},
		{"runtime.allocs_per_packet", "count", "lower", 0},
		{"runtime.sched_latency_ms_p99", "ms", "lower", 0},
		{"relay.redirect_ms_p50", "ms", "lower", 0},
		{"relay.redirect_ms_p99", "ms", "lower", 0},
		{"relay.edge_load_max_over_mean", "ratio", "lower", 0},
		{"relay.origin_pulls", "count", "lower", 0},
		{"relay.duplicate_pulls", "count", "lower", 0},
		{"relay.catalog_invalidations", "count", "lower", 0},
		{"relay.first_packet_ms_mean", "ms", "lower", 0},
		{"edgecache.hit_ratio", "fraction", "higher", 0},
		{"edgecache.evictions", "count", "lower", 0},
		{"edgecache.admission_rejects", "count", "lower", 0},
		{"edgecache.coalesced_pulls", "count", "higher", 0},
		{"streaming.pacing_lag_ms_mean", "ms", "lower", 0},
		{"streaming.packets_per_s", "1/s", "higher", 0},
		{"catalog.apply_ms_p50", "ms", "lower", 0},
		{"catalog.apply_ms_p99", "ms", "lower", 0},
		{"catalog.publish_visible_ms_p50", "ms", "lower", 0},
		{"client.retries_per_1k", "count", "lower", 0},
		{"client.startup_ms_p50", "ms", "lower", 0},
		{"client.startup_ms_p99", "ms", "lower", 0},
		{"player.stall_events", "count", "lower", 0},
		{"player.broken_frames", "count", "lower", 0},
		{"player.stalled_share", "fraction", "lower", 0},
		{"player.rebuffer_ratio", "fraction", "lower", 0},
		{"player.sync_skew_ms_p50", "ms", "lower", 0},
		{"trace.overhead_cpu_ns_per_packet", "ns", "lower", 0},
	}
	for _, pkg := range perLayerPackages {
		out = append(out,
			metricSpec{pkg + ".cpu_share", "fraction", "lower", 0},
			metricSpec{pkg + ".cpu_ns_per_packet", "ns", "lower", 0})
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}()
