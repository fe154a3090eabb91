package main

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
)

// Verdicts of one workload × metric row.
const (
	verdictOK         = "ok"
	verdictRegressed  = "regressed"
	verdictUnresolved = "unresolved" // the spread (between sub-windows, or between a side's records) is wider than the bound: a difference that size cannot be told from noise
	verdictHigher     = "higher"     // failed_frac rose, though by less than its bound
)

// row is one line of the comparison.
type row struct {
	Workload, Metric string
	Old, New         value
	Bound            e2eSpec
	Worsening        float64 // share of Old (or absolute amount) by which New is worse; negative = better
	Verdict          string
}

// fails reports whether the row alone makes `compare` exit non-zero.
func (r row) fails() bool { return r.Verdict == verdictRegressed || r.Verdict == verdictHigher }

// compareRecords lines up every end-to-end metric both records hold.
func compareRecords(old, cur *record) []row {
	var rows []row
	names := make([]string, 0, len(old.Workloads))
	for n := range old.Workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, wn := range names {
		ow, cw := old.Workloads[wn], cur.Workloads[wn]
		if cw == nil {
			continue
		}
		for _, spec := range e2eSpecs {
			o, okO := ow.EndToEnd[spec.Name]
			c, okC := cw.EndToEnd[spec.Name]
			if !okO || !okC {
				continue
			}
			rows = append(rows, judge(wn, spec, o, c))
		}
	}
	return rows
}

func judge(workload string, spec e2eSpec, o, c value) row {
	r := row{Workload: workload, Metric: spec.Name, Old: o, New: c, Bound: spec, Verdict: verdictOK}
	diff := c.Value - o.Value
	if spec.Better == "higher" {
		diff = -diff
	}
	r.Worsening = diff
	if !spec.Abs {
		if o.Value == 0 {
			if diff > 0 {
				r.Worsening = math.Inf(1)
			}
		} else {
			r.Worsening = diff / math.Abs(o.Value)
		}
	}
	switch {
	case spec.Name == "acked_lost":
		if c.Value > 0 {
			r.Verdict = verdictRegressed
		}
	case !spec.Abs && math.Max(o.Spread, c.Spread) > spec.Bound:
		r.Verdict = verdictUnresolved
	case r.Worsening > spec.Bound:
		r.Verdict = verdictRegressed
	case spec.Name == "failed_frac" && c.Value > o.Value:
		r.Verdict = verdictHigher
	}
	return r
}

func printRows(w io.Writer, rows []row) {
	fmt.Fprintf(w, "%-14s %-26s %14s %14s  %-22s %-10s %s\n", "workload", "metric", "old", "new", "new/old", "bound", "verdict")
	for _, r := range rows {
		ratio := "n/a (old = 0)"
		if r.Old.Value != 0 {
			ratio = fmt.Sprintf("%.3f× of %.6g %s", r.New.Value/r.Old.Value, r.Old.Value, r.Old.Unit)
		}
		bound := fmt.Sprintf("%.0f%%", 100*r.Bound.Bound)
		if r.Bound.Abs {
			bound = fmt.Sprintf("+%g abs", r.Bound.Bound)
		}
		note := ""
		if r.Verdict == verdictUnresolved {
			note = fmt.Sprintf(" (spread %.0f%%)", 100*math.Max(r.Old.Spread, r.New.Spread))
		}
		fmt.Fprintf(w, "%-14s %-26s %14.6g %14.6g  %-22s %-10s %s%s\n",
			r.Workload, r.Metric, r.Old.Value, r.New.Value, ratio, bound, r.Verdict, note)
	}
}

// readSide reads one side of a comparison: one record, or several
// (comma-separated) folded into one whose values are the medians and whose
// spreads are the (max−min)/median between the records.  One run cannot
// tell this sandbox's minute-long slow spells from a regression; several
// per side can, and a side that caught a spell reads as `unresolved`.
func readSide(arg string) (*record, error) {
	var recs []*record
	for _, path := range strings.Split(arg, ",") {
		r, err := readRecord(path)
		if err != nil {
			return nil, err
		}
		recs = append(recs, r)
	}
	if len(recs) == 1 {
		return recs[0], nil
	}
	out := &record{Schema: schemaVersion, Workloads: map[string]*workloadRecord{}}
	for name := range recs[0].Workloads {
		values := map[string][]float64{}
		units := map[string]string{}
		for _, r := range recs {
			if w := r.Workloads[name]; w != nil {
				for metric, v := range w.EndToEnd {
					values[metric] = append(values[metric], v.Value)
					units[metric] = v.Unit
				}
			}
		}
		w := &workloadRecord{EndToEnd: metricSet{}}
		for metric, vs := range values {
			if len(vs) < len(recs) {
				continue // a metric one of the records lacks cannot be folded
			}
			sort.Float64s(vs)
			med := vs[len(vs)/2]
			if len(vs)%2 == 0 {
				med = (vs[len(vs)/2-1] + vs[len(vs)/2]) / 2
			}
			w.EndToEnd[metric] = value{Value: med, Unit: units[metric], Sub: vs, Spread: spreadOf(vs), Samples: len(vs)}
		}
		out.Workloads[name] = w
	}
	return out, nil
}

// runCompare implements `bench compare OLD.json[,OLD2.json…]
// NEW.json[,NEW2.json…]`: 0 when no row regressed, 1 when one did, 2 on
// bad usage or unreadable records.
func runCompare(args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "usage: bench compare OLD.json[,OLD2.json...] NEW.json[,NEW2.json...]")
		return 2
	}
	old, err := readSide(args[0])
	if err != nil {
		fmt.Fprintln(stderr, "bench compare:", err)
		return 2
	}
	cur, err := readSide(args[1])
	if err != nil {
		fmt.Fprintln(stderr, "bench compare:", err)
		return 2
	}
	rows := compareRecords(old, cur)
	if len(rows) == 0 {
		fmt.Fprintln(stderr, "bench compare: the records share no workload")
		return 2
	}
	printRows(stdout, rows)
	failed := 0
	for _, r := range rows {
		if r.fails() {
			failed++
		}
	}
	if failed > 0 {
		fmt.Fprintf(stdout, "%d of %d rows regressed\n", failed, len(rows))
		return 1
	}
	return 0
}
