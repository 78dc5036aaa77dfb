package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/loadgen"
	"repro/internal/metrics"
)

// Harness verdict thresholds. A run whose process used this much of
// its CPUs, or whose generator or scheduler ran this late, measured the
// harness as much as the system, and its QoE figures say so.
const (
	saturatedCPUUtil = 0.85
	lateGenLagMs     = 20.0
	lateSchedMs      = 20.0
)

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// quantile is the q-quantile of vals by linear interpolation between
// closest ranks; vals is sorted in place. +Inf entries (failed
// operations) sort last and exceed every limit.
func quantile(vals []float64, q float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	sort.Float64s(vals)
	pos := q * float64(len(vals)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi || math.IsInf(vals[hi], 1) {
		return vals[hi]
	}
	return vals[lo] + (vals[hi]-vals[lo])*(pos-float64(lo))
}

// histMeanMs is the mean of every labelled series of a histogram family
// in a snapshot delta, in milliseconds.
func histMeanMs(deltas []metrics.Snapshot, name string) float64 {
	var sum, count float64
	for _, d := range deltas {
		sum += d.Sum(name + "_sum")
		count += d.Sum(name + "_count")
	}
	if count == 0 {
		return 0
	}
	return sum / count * 1000
}

func sumSeries(deltas []metrics.Snapshot, name string) float64 {
	var total float64
	for _, d := range deltas {
		total += d.Get(name)
	}
	return total
}

// results are a run's figures: values by metric name, plus the sample
// counts and verdicts the printed report carries beside them.
type results struct {
	values    map[string]float64
	attempted int
	failed    int
	samples   map[string]int
	verdict   string
}

// packets is the number of media packets the edges sent to viewers.
func (w *window) packets() float64 { return sumSeries(w.edgeD, "lod_packets_sent_total") }

// cpuNsPerPacket is process CPU over the window per packet served.
func (w *window) cpuNsPerPacket() float64 {
	if p := w.packets(); p > 0 {
		return float64(w.cpu.Nanoseconds()) / p
	}
	return 0
}

// measure folds a window into every metric the benchmark reports, end
// to end and per layer. Profile-derived metrics are added by the caller.
func measure(w *window) results {
	v := make(map[string]float64)
	r := results{values: v, samples: make(map[string]int)}

	setups := make([]float64, len(w.setupTimes))
	for i, d := range w.setupTimes {
		setups[i] = d.Seconds()
	}
	v["setup_s"] = quantile(setups, 0.5)
	r.samples["setup_s"] = len(setups)

	var startups, lags, skews []float64
	var playerSessions, stalled, stalls, broken, retries int
	var stallMs, playedMs float64
	for _, rec := range w.viewers {
		res := rec.res
		r.attempted++
		lags = append(lags, ms(rec.entry-rec.due))
		isPlayer := rec.kind != loadgen.KindLiveFan
		if isPlayer {
			playerSessions++
		}
		retries += res.Retries
		if res.Err != "" || res.StartupMs <= 0 {
			r.failed++
			startups = append(startups, math.Inf(1))
			if isPlayer {
				stalled++
			}
			continue
		}
		startups = append(startups, ms(rec.entry-rec.due)+res.StartupMs)
		broken += res.BrokenFrames
		if !isPlayer {
			continue
		}
		if res.Stalls > 0 {
			stalled++
		}
		stalls += res.Stalls
		stallMs += res.StallMs
		playedMs += res.DurationMs
		skews = append(skews, res.MaxSkewMs)
	}
	v["client.startup_ms_p50"] = quantile(startups, 0.5)
	v["client.startup_ms_p99"] = quantile(startups, 0.99)
	if playerSessions > 0 {
		v["player.stalled_share"] = float64(stalled) / float64(playerSessions)
		v["stall_free_share"] = 1 - v["player.stalled_share"]
	}
	r.samples["player_sessions"] = playerSessions
	if playedMs > 0 {
		v["player.rebuffer_ratio"] = stallMs / playedMs
	}
	v["player.sync_skew_ms_p50"] = quantile(skews, 0.5)
	v["player.stall_events"] = float64(stalls)
	v["player.broken_frames"] = float64(broken)
	v["client.retries_per_1k"] = float64(retries) / float64(len(w.viewers)) * 1000
	v["loadgen.gen_lag_ms_p99"] = quantile(lags, 0.99)

	var applies, visibles []float64
	for _, p := range w.publishes {
		r.attempted++
		if p.err != nil {
			r.failed++
			visibles = append(visibles, math.Inf(1))
			continue
		}
		applies = append(applies, ms(p.ack-p.call))
		visibles = append(visibles, ms(p.visible-p.call))
	}
	v["catalog.apply_ms_p50"] = quantile(applies, 0.5)
	v["catalog.apply_ms_p99"] = quantile(applies, 0.99)
	v["catalog.publish_visible_ms_p50"] = quantile(visibles, 0.5)
	r.samples["publishes"] = len(w.publishes)

	var redirects []float64
	for _, p := range w.probes {
		r.attempted++
		if p.err != nil {
			r.failed++
			redirects = append(redirects, math.Inf(1))
			continue
		}
		redirects = append(redirects, ms(p.end-p.start))
	}
	v["relay.redirect_ms_p50"] = quantile(redirects, 0.5)
	v["relay.redirect_ms_p99"] = quantile(redirects, 0.99)
	r.samples["probes"] = len(w.probes)

	packets := w.packets()
	v["cpu_ns_per_packet"] = w.cpuNsPerPacket()
	v["peak_heap_mb"] = float64(w.peakHeap) / 1e6
	v["origin_mb_per_1k_sessions"] = w.originD.Get("lod_bytes_sent_total") / 1e6 / (float64(len(w.viewers)) / 1000)

	v["loadgen.cpu_util"] = float64(w.cpu) / (float64(w.wall) * float64(runtime.GOMAXPROCS(0)))
	if w.rt.busyCPU > 0 {
		v["runtime.gc_cpu_share"] = w.rt.gcCPU / w.rt.busyCPU
	}
	if packets > 0 {
		v["runtime.allocs_per_packet"] = float64(w.rt.allocs) / packets
	}
	v["runtime.sched_latency_ms_p99"] = histQuantile(w.rt.schedBuckets, w.rt.schedCounts, 0.99) * 1000

	var maxRedirects, sumRedirects float64
	for _, id := range w.edgeIDs {
		n := w.registryD.Get(fmt.Sprintf(`lod_registry_node_redirects_total{node="%s"}`, id))
		sumRedirects += n
		maxRedirects = math.Max(maxRedirects, n)
	}
	if sumRedirects > 0 {
		v["relay.edge_load_max_over_mean"] = maxRedirects / (sumRedirects / float64(len(w.edgeIDs)))
	}
	v["relay.origin_pulls"] = w.originD.Get("lod_mirror_fetches_total")
	var dup float64
	for _, stats := range w.caches {
		for _, st := range stats {
			if st.Pulls > 1 {
				dup += float64(st.Pulls - 1)
			}
		}
	}
	v["relay.duplicate_pulls"] = dup
	v["relay.catalog_invalidations"] = sumSeries(w.edgeD, "lod_edge_catalog_invalidations_total")
	v["relay.first_packet_ms_mean"] = histMeanMs(w.edgeD, "lod_first_packet_seconds")

	hits := sumSeries(w.edgeD, "lod_edge_cache_hits_total")
	misses := sumSeries(w.edgeD, "lod_edge_cache_misses_total")
	if hits+misses > 0 {
		v["edgecache.hit_ratio"] = hits / (hits + misses)
	}
	v["edgecache.evictions"] = sumSeries(w.edgeD, "lod_edge_cache_evictions_total")
	v["edgecache.admission_rejects"] = sumSeries(w.edgeD, "lod_edge_admission_rejects_total")
	v["edgecache.coalesced_pulls"] = sumSeries(w.edgeD, "lod_edge_coalesced_pulls_total")
	v["streaming.pacing_lag_ms_mean"] = histMeanMs(w.edgeD, "lod_pacing_lag_seconds")
	v["streaming.packets_per_s"] = packets / w.wall.Seconds()

	var why []string
	if u := v["loadgen.cpu_util"]; u >= saturatedCPUUtil {
		v["loadgen.saturated"] = 1
		why = append(why, fmt.Sprintf("saturated: CPU use %.0f%% >= %.0f%%", u*100, saturatedCPUUtil*100))
	}
	if lag, sched := v["loadgen.gen_lag_ms_p99"], v["runtime.sched_latency_ms_p99"]; lag > lateGenLagMs || sched > lateSchedMs {
		v["loadgen.late"] = 1
		why = append(why, fmt.Sprintf("late: generator lag p99 %.1f ms (limit %.0f), scheduler latency p99 %.1f ms (limit %.0f)",
			lag, lateGenLagMs, sched, lateSchedMs))
	}
	r.verdict = "ok"
	if len(why) > 0 {
		r.verdict = strings.Join(why, "; ")
	}
	return r
}

// addProfile adds the traced run's per-package CPU attribution.
func (r results) addProfile(p *cpuProfile, cpu time.Duration, packets float64) {
	byPkg := p.attribute()
	var total int64
	for _, ns := range byPkg {
		total += ns
	}
	known := make(map[string]bool)
	for _, pkg := range perLayerPackages {
		known[pkg] = true
	}
	shares := make(map[string]float64)
	for pkg, ns := range byPkg {
		if !known[pkg] {
			pkg = "other"
		}
		if total > 0 {
			shares[pkg] += float64(ns) / float64(total)
		}
	}
	for _, pkg := range perLayerPackages {
		r.values[pkg+".cpu_share"] = shares[pkg]
		if packets > 0 {
			r.values[pkg+".cpu_ns_per_packet"] = shares[pkg] * float64(cpu.Nanoseconds()) / packets
		}
	}
}
