package main

import (
	"encoding/json"
	"fmt"
	"io"
)

// manifest is BENCHMARK.json: the driver's view of this benchmark.  It is
// generated from the metric tables (`bench manifest`) and a test keeps
// the committed file equal to them.
type manifest struct {
	Command    []string         `json:"command"`
	Paths      []string         `json:"paths"`
	RunSeconds int              `json:"run_seconds"`
	Workloads  []manifestLoad   `json:"workloads"`
	EndToEnd   []manifestMetric `json:"end_to_end"`
	PerLayer   []manifestMetric `json:"per_layer"`
}

type manifestLoad struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type manifestMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

// contractBoundCap is the widest bound the driver's contract accepts; a
// test holds the end-to-end table to it.
const contractBoundCap = 0.25

func buildManifest() manifest {
	m := manifest{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: defaultSeconds,
	}
	for _, w := range workloads {
		m.Workloads = append(m.Workloads, manifestLoad{w.Name, w.Why})
	}
	for _, s := range e2eSpecs {
		if s.Contract {
			bound := s.Bound
			m.EndToEnd = append(m.EndToEnd, manifestMetric{s.Name, s.Unit, s.Better, &bound})
		} else {
			m.PerLayer = append(m.PerLayer, manifestMetric{s.Name, s.Unit, s.Better, nil})
		}
	}
	for _, s := range layerSpecs {
		m.PerLayer = append(m.PerLayer, manifestMetric{s.Name, s.Unit, s.Better, nil})
	}
	return m
}

func printManifest(stdout, stderr io.Writer) int {
	buf, err := json.MarshalIndent(buildManifest(), "", "  ")
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", buf)
	return 0
}
