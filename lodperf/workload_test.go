package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// TestMiniatureWorkloads runs a fraction of a second of arrivals of
// every workload end to end through the command, correctness gate
// included, and checks that every end-to-end metric is reported and
// non-zero.
func TestMiniatureWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("drives in-process clusters for several seconds")
	}
	for _, w := range workloads {
		w := w
		t.Run(w.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			code := run([]string{"-workload", w.name, "-seed", "7", "-seconds", "0.5"}, &stdout, &stderr)
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			if code != 0 {
				t.Fatalf("exit %d\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
			}
			var sum summary
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &sum); err != nil {
				t.Fatalf("last line is not the result: %v\n%s", err, stdout.String())
			}
			if !sum.Correct || sum.Attempted < 1 || sum.Failed != 0 {
				t.Errorf("result %+v", sum)
			}
			if len(sum.Metrics) != len(endToEnd) {
				t.Errorf("%d metrics reported, want %d", len(sum.Metrics), len(endToEnd))
			}
			for _, m := range endToEnd {
				got, ok := sum.Metrics[m.name]
				if !ok || got.Unit != m.unit || got.Value <= 0 {
					t.Errorf("%s: %+v (present %v)", m.name, got, ok)
				}
			}
		})
	}
}

func TestTracedRunReportsPerLayer(t *testing.T) {
	if testing.Short() {
		t.Skip("drives in-process clusters for several seconds")
	}
	var stdout, stderr bytes.Buffer
	out := t.TempDir()
	code := run([]string{"-workload", "longtail_publish", "-seed", "3", "-seconds", "0.5",
		"-trace", "1", "-out", out}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d\n%s\n%s", code, stdout.String(), stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var sum summary
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &sum); err != nil {
		t.Fatal(err)
	}
	if len(sum.Metrics) != len(perLayer) {
		t.Errorf("%d metrics reported, want %d", len(sum.Metrics), len(perLayer))
	}
	var shares float64
	for _, pkg := range perLayerPackages {
		shares += sum.Metrics[pkg+".cpu_share"].Value
	}
	if shares < 0.999 || shares > 1.001 {
		t.Errorf("package CPU shares sum to %v, want 1", shares)
	}
	for _, name := range []string{"catalog.apply_ms_p50", "relay.redirect_ms_p50", "edgecache.hit_ratio"} {
		if sum.Metrics[name].Value <= 0 {
			t.Errorf("%s = %v, want > 0", name, sum.Metrics[name].Value)
		}
	}
}

func TestRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "nope"},
		{"-trace", "2"},
		{"-seconds", "0"},
		{"-bogus"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 2 {
			t.Errorf("%v: exit %d, want 2", args, code)
		}
		if stdout.Len() != 0 {
			t.Errorf("%v: printed a result: %s", args, stdout.String())
		}
	}
}
