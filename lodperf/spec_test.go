package main

import (
	"bytes"
	"os"
	"regexp"
	"testing"
)

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
var unitName = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

func TestMetricSpecs(t *testing.T) {
	seen := make(map[string]bool)
	check := func(m metricSpec) {
		if !metricName.MatchString(m.name) {
			t.Errorf("metric name %q", m.name)
		}
		if seen[m.name] {
			t.Errorf("metric %q listed twice", m.name)
		}
		seen[m.name] = true
		if !unitName.MatchString(m.unit) {
			t.Errorf("%s: unit %q", m.name, m.unit)
		}
		if m.better != "lower" && m.better != "higher" {
			t.Errorf("%s: direction %q", m.name, m.better)
		}
	}
	for _, m := range endToEnd {
		check(m)
		if m.bound <= 0 || m.bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.name, m.bound)
		}
	}
	for _, m := range perLayer {
		check(m)
	}
	if len(endToEnd) == 0 || endToEnd[0] != (metricSpec{"setup_s", "s", "lower", 0.25}) {
		t.Errorf("setup_s must lead the end-to-end metrics with unit s, lower, and the largest bound")
	}
	for _, w := range workloads {
		if !metricName.MatchString(w.name) || w.why == "" || len(w.why) > 200 {
			t.Errorf("workload %q: bad name or why", w.name)
		}
	}
}

// TestBenchmarkJSONCurrent keeps the committed BENCHMARK.json equal to
// what the tables above generate (lodperf -spec).
func TestBenchmarkJSONCurrent(t *testing.T) {
	have, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := writeSpec(&want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(have, want.Bytes()) {
		t.Errorf("BENCHMARK.json is stale; regenerate it in lodperf/ with: go run . -spec > ../BENCHMARK.json")
	}
}
