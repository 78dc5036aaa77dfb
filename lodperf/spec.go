package main

import (
	"encoding/json"
	"io"
)

// runSeconds is the arrival window of one measured run.
const runSeconds = 20

type specWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type specE2E struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type specLayer struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

type benchSpec struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []specWorkload `json:"workloads"`
	EndToEnd   []specE2E      `json:"end_to_end"`
	PerLayer   []specLayer    `json:"per_layer"`
}

// buildSpec is BENCHMARK.json, generated from the tables the benchmark
// measures with, so the two cannot drift.
func buildSpec() benchSpec {
	s := benchSpec{
		Command:    []string{"python3", "lodperf/run.py"},
		Paths:      []string{"lodperf"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		s.Workloads = append(s.Workloads, specWorkload{w.name, w.why})
	}
	for _, m := range endToEnd {
		s.EndToEnd = append(s.EndToEnd, specE2E{m.name, m.unit, m.better, m.bound})
	}
	for _, m := range perLayer {
		s.PerLayer = append(s.PerLayer, specLayer{m.name, m.unit, m.better})
	}
	return s
}

func writeSpec(w io.Writer) error {
	b, err := json.MarshalIndent(buildSpec(), "", "  ")
	if err != nil {
		return err
	}
	_, err = w.Write(append(b, '\n'))
	return err
}
