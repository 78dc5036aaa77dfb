// Command lodperf is the repository's benchmark. It drives an
// in-process lecture-on-demand cluster (origin, registry, edges) from
// outside through loadgen's public functions, on open-loop schedules of
// viewers, catalog publishes and redirect probes drawn from -seed, and
// reports what viewers and operators see: startup, stalls, presentation
// skew, CPU per packet served, heap, origin egress and publish
// visibility. With -trace 1 it measures the same workload twice, once
// plain and once under a CPU profile with spans recorded, and reports
// per-layer figures and the tracing overhead instead.
//
//	lodperf -workload lecture_replay -seed 1 -seconds 20 -trace 0
//	lodperf -workload all -seed 1 -seconds 20 -trace 1
//	lodperf -spec > BENCHMARK.json
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The process exits 1 when the
// correctness gate fails and 2 on a usage or set-up error.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// metricValue is one metric in the final JSON line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summary is the final JSON line.
type summary struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("lodperf", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "all", "workload to run, or all")
	seed := fs.Int64("seed", 1, "seed of every generated input")
	seconds := fs.Float64("seconds", runSeconds, "length of the arrival window in seconds")
	trace := fs.Int("trace", 0, "1 reports per-layer metrics from a traced run instead of end-to-end metrics")
	outDir := fs.String("out", ".bench_out", "directory for the traced run's spans and CPU profile")
	spec := fs.Bool("spec", false, "print BENCHMARK.json and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *spec {
		if err := writeSpec(stdout); err != nil {
			fmt.Fprintln(stderr, "lodperf:", err)
			return 2
		}
		return 0
	}
	if *trace != 0 && *trace != 1 || *seconds <= 0 {
		fmt.Fprintln(stderr, "lodperf: -trace must be 0 or 1 and -seconds positive")
		return 2
	}
	var selected []workload
	if *name == "all" {
		selected = workloads
	} else {
		w, err := findWorkload(*name)
		if err != nil {
			fmt.Fprintln(stderr, "lodperf:", err)
			return 2
		}
		selected = []workload{w}
	}
	// The load comes from one process with one P per CPU.
	runtime.GOMAXPROCS(runtime.NumCPU())

	out := summary{Correct: true, Metrics: make(map[string]metricValue)}
	specs := endToEnd
	if *trace == 1 {
		specs = perLayer
	}
	for _, w := range selected {
		cfg := runConfig{w: w, seed: *seed, seconds: *seconds}
		res, failures, err := runWorkload(cfg, *trace == 1, *outDir, stdout)
		if err != nil {
			fmt.Fprintf(stderr, "lodperf: %s: %v\n", w.name, err)
			return 2
		}
		printReport(stdout, cfg, res, failures, *trace == 1)
		out.Attempted += res.attempted
		out.Failed += res.failed
		if len(failures) > 0 {
			out.Correct = false
		}
		for _, m := range specs {
			key := m.name
			if len(selected) > 1 {
				key = w.name + "." + m.name
			}
			out.Metrics[key] = metricValue{Value: res.values[m.name], Unit: m.unit}
		}
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(stderr, "lodperf:", err)
		return 2
	}
	fmt.Fprintln(stdout, string(line))
	if !out.Correct {
		return 1
	}
	return 0
}

// runWorkload runs one workload. Untraced, that is one window. Traced,
// it is an untraced window followed by a traced one on the same seed:
// the per-layer figures come from the second, and the difference of
// their CPU per packet is the tracing overhead.
func runWorkload(cfg runConfig, traced bool, outDir string, log io.Writer) (results, []string, error) {
	cfg.tracer = newTracer(false)
	win, err := runWindow(context.Background(), cfg)
	if err != nil {
		return results{}, nil, err
	}
	if !traced {
		return measure(win), win.failures, nil
	}
	plainCPU := win.cpuNsPerPacket()
	fmt.Fprintf(log, "%s: untraced window done (%.0f ns/packet), starting traced window\n", cfg.w.name, plainCPU)

	cfg.tracer = newTracer(true)
	cfg.profile = true
	traceWin, err := runWindow(context.Background(), cfg)
	if err != nil {
		return results{}, nil, err
	}
	res := measure(traceWin)
	res.values["trace.overhead_cpu_ns_per_packet"] = traceWin.cpuNsPerPacket() - plainCPU
	prof, err := parseCPUProfile(traceWin.profile)
	if err != nil {
		return results{}, nil, fmt.Errorf("decode cpu profile: %w", err)
	}
	res.addProfile(prof, traceWin.cpu, traceWin.packets())

	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return results{}, nil, err
	}
	stem := filepath.Join(outDir, fmt.Sprintf("%s-seed%d", cfg.w.name, cfg.seed))
	if err := cfg.tracer.write(stem + ".spans.jsonl"); err != nil {
		return results{}, nil, err
	}
	if err := os.WriteFile(stem+".cpu.pprof", traceWin.profile, 0o644); err != nil {
		return results{}, nil, err
	}
	failures := append(win.failures, traceWin.failures...)
	return res, failures, nil
}

// headline lists the figures printed for every workload: every
// end-to-end metric plus the viewer figures that are not gated because
// they read 0 on a healthy run or move between runs by more than any
// bound allows (see endToEnd). key is the metric's name in results.
var headline = []struct{ name, key, unit string }{
	{"setup_s", "setup_s", "s"},
	{"startup_ms_p50", "client.startup_ms_p50", "ms"},
	{"startup_ms_p99", "client.startup_ms_p99", "ms"},
	{"stalled_share", "player.stalled_share", "fraction"},
	{"stall_free_share", "stall_free_share", "fraction"},
	{"rebuffer_ratio", "player.rebuffer_ratio", "fraction"},
	{"sync_skew_ms_p50", "player.sync_skew_ms_p50", "ms"},
	{"cpu_ns_per_packet", "cpu_ns_per_packet", "ns"},
	{"peak_heap_mb", "peak_heap_mb", "MB"},
	{"origin_mb_per_1k_sessions", "origin_mb_per_1k_sessions", "MB"},
	{"publish_visible_ms_p50", "catalog.publish_visible_ms_p50", "ms"},
}

func printReport(w io.Writer, cfg runConfig, r results, failures []string, traced bool) {
	mode := "end to end"
	if traced {
		mode = "per layer (traced)"
	}
	fmt.Fprintf(w, "== %s  seed %d  %g s  %s\n", cfg.w.name, cfg.seed, cfg.seconds, mode)
	fmt.Fprintf(w, "   %d viewers, %d publishes, %d probes; %d player sessions; %d set-ups timed\n",
		r.attempted-r.samples["publishes"]-r.samples["probes"], r.samples["publishes"], r.samples["probes"],
		r.samples["player_sessions"], r.samples["setup_s"])
	if traced {
		for _, m := range perLayer {
			fmt.Fprintf(w, "   %-36s %14.4f %s\n", m.name, r.values[m.name], m.unit)
		}
	} else {
		for _, m := range headline {
			fmt.Fprintf(w, "   %-36s %14.4f %s\n", m.name, r.values[m.key], m.unit)
		}
	}
	fmt.Fprintf(w, "   harness: CPU use %.1f%%, generator lag p99 %.1f ms, scheduler latency p99 %.2f ms -> %s\n",
		r.values["loadgen.cpu_util"]*100, r.values["loadgen.gen_lag_ms_p99"], r.values["runtime.sched_latency_ms_p99"], r.verdict)
	if r.verdict != "ok" {
		fmt.Fprintln(w, "   (QoE above includes harness delay; it is not the system's alone)")
	}
	if len(failures) == 0 {
		fmt.Fprintln(w, "   correctness: ok")
		return
	}
	fmt.Fprintf(w, "   correctness: FAILED\n     %s\n", strings.Join(failures, "\n     "))
}
