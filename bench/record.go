package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
)

// schemaVersion names the record layout `bench compare` understands.
const schemaVersion = "dbdht-bench/1"

// value is one measured metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// Sub holds the metric over each third of the timed window and
	// Spread their (max−min)/median: the within-run noise `compare`
	// weighs a difference against.  End-to-end timings only.
	Sub    []float64 `json:"subwindows,omitempty"`
	Spread float64   `json:"spread,omitempty"`
	// Samples is how many requests a latency figure rests on, and Note
	// anything a reader must know to interpret it.
	Samples int    `json:"samples,omitempty"`
	Note    string `json:"note,omitempty"`
}

// metricSet is a named collection of values.
type metricSet map[string]value

func (m metricSet) set(name string, v float64, unit string) { m[name] = value{Value: v, Unit: unit} }

// names returns the metric names in a stable order.
func (m metricSet) names() []string {
	out := make([]string, 0, len(m))
	for n := range m {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// workloadRecord is one workload's outcome.
type workloadRecord struct {
	Why         string    `json:"why"`
	Fingerprint string    `json:"key_stream_fingerprint"`
	Requests    int       `json:"requests"`
	Failed      int       `json:"failed"`
	Errors      []string  `json:"errors,omitempty"`
	EndToEnd    metricSet `json:"end_to_end"`
	PerLayer    metricSet `json:"per_layer,omitempty"`

	badReads int // reads in the load that came back missing or corrupt
}

// record is the one JSON document a ledger run writes.
type record struct {
	Schema    string                     `json:"schema"`
	Seed      int64                      `json:"seed"`
	Seconds   float64                    `json:"window_seconds"`
	Profile   profile                    `json:"profile"`
	Host      map[string]any             `json:"host"`
	Workloads map[string]*workloadRecord `json:"workloads"`
	// Layers holds the workload-independent layer-stage metrics.
	Layers metricSet `json:"layers,omitempty"`
}

func newRecord(e env) *record {
	return &record{
		Schema: schemaVersion, Seed: e.seed, Seconds: e.window.Seconds(), Profile: e.prof, Host: hostInfo(),
		Workloads: map[string]*workloadRecord{},
	}
}

func hostInfo() map[string]any {
	return map[string]any{
		"goos": runtime.GOOS, "goarch": runtime.GOARCH, "go": runtime.Version(),
		"nproc": runtime.NumCPU(),
		"note":  "shared sandbox vCPUs, loopback TCP, page-cache-backed fsync: latency is processor + loopback + this sandbox's fsync time, not a device's or a network's",
	}
}

func writeRecord(path string, r *record) error {
	buf, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}

func readRecord(path string) (*record, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r record
	if err := json.Unmarshal(buf, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if r.Schema != schemaVersion {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, r.Schema, schemaVersion)
	}
	return &r, nil
}

// printMetrics writes `workload metric value unit` lines, with the
// sub-window spread beside each timing that has one.
func printMetrics(w io.Writer, workload string, m metricSet) {
	for _, n := range m.names() {
		v := m[n]
		fmt.Fprintf(w, "%-14s %-44s %14.6g %-8s", workload, n, v.Value, v.Unit)
		if len(v.Sub) > 0 {
			fmt.Fprintf(w, " spread %.1f%%", 100*v.Spread)
		}
		if v.Samples > 0 {
			fmt.Fprintf(w, " n=%d", v.Samples)
		}
		if v.Note != "" {
			fmt.Fprintf(w, " (%s)", v.Note)
		}
		fmt.Fprintln(w)
	}
}

// spreadOf is (max−min)/median of the sub-window values; 0 when the
// median is 0.
func spreadOf(sub []float64) float64 {
	if len(sub) == 0 {
		return 0
	}
	s := append([]float64(nil), sub...)
	sort.Float64s(s)
	med := s[len(s)/2]
	if len(s)%2 == 0 {
		med = (s[len(s)/2-1] + s[len(s)/2]) / 2
	}
	if med == 0 {
		return 0
	}
	return (s[len(s)-1] - s[0]) / math.Abs(med)
}
