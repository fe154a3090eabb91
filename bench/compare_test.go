package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
)

// syntheticRecord is a one-workload record with a steady run's values.
func syntheticRecord() *record {
	sub := func(v float64) value {
		return value{Value: v, Unit: "x", Sub: []float64{v * 0.99, v, v * 1.01}, Spread: 0.02}
	}
	return &record{
		Schema: schemaVersion,
		Workloads: map[string]*workloadRecord{
			"write_durable": {EndToEnd: metricSet{
				"throughput_keys_per_s": sub(30000),
				"write_p50_ms":          sub(4),
				"write_p99_ms":          sub(12),
				"failed_frac":           {Value: 0, Unit: "ratio"},
				"acked_lost":            {Value: 0, Unit: "count"},
				"sigma_qv_pct":          {Value: 10, Unit: "%"},
			}},
		},
	}
}

func TestCompareVerdicts(t *testing.T) {
	for _, tc := range []struct {
		name   string
		change func(m metricSet)
		metric string
		want   string
		fails  bool
	}{
		{"identical", func(metricSet) {}, "throughput_keys_per_s", verdictOK, false},
		{"throughput 15% down is inside 25%", func(m metricSet) { scale(m, "throughput_keys_per_s", 0.85) }, "throughput_keys_per_s", verdictOK, false},
		{"throughput 30% down regresses", func(m metricSet) { scale(m, "throughput_keys_per_s", 0.70) }, "throughput_keys_per_s", verdictRegressed, true},
		{"throughput up is never a regression", func(m metricSet) { scale(m, "throughput_keys_per_s", 1.5) }, "throughput_keys_per_s", verdictOK, false},
		{"p50 30% up regresses", func(m metricSet) { scale(m, "write_p50_ms", 1.30) }, "write_p50_ms", verdictRegressed, true},
		{"p99 20% up is inside 30%", func(m metricSet) { scale(m, "write_p99_ms", 1.2) }, "write_p99_ms", verdictOK, false},
		{"noisy sub-windows cannot resolve", func(m metricSet) {
			v := m["write_p50_ms"]
			v.Value, v.Spread = v.Value*1.5, 0.4
			m["write_p50_ms"] = v
		}, "write_p50_ms", verdictUnresolved, false},
		{"any lost key regresses", func(m metricSet) { m.set("acked_lost", 1, "count") }, "acked_lost", verdictRegressed, true},
		{"failed_frac over its absolute bound", func(m metricSet) { m.set("failed_frac", 0.002, "ratio") }, "failed_frac", verdictRegressed, true},
		{"failed_frac higher inside the bound still fails", func(m metricSet) { m.set("failed_frac", 0.0005, "ratio") }, "failed_frac", verdictHigher, true},
		{"sigma +0.5 is inside +1.0 abs", func(m metricSet) { m.set("sigma_qv_pct", 10.5, "%") }, "sigma_qv_pct", verdictOK, false},
		{"sigma +2 regresses", func(m metricSet) { m.set("sigma_qv_pct", 12, "%") }, "sigma_qv_pct", verdictRegressed, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			old, cur := syntheticRecord(), syntheticRecord()
			tc.change(cur.Workloads["write_durable"].EndToEnd)
			var got *row
			anyFail := false
			for _, r := range compareRecords(old, cur) {
				anyFail = anyFail || r.fails()
				if r.Metric == tc.metric {
					got = &r
				}
			}
			if got == nil {
				t.Fatalf("no row for %s", tc.metric)
			}
			if got.Verdict != tc.want || anyFail != tc.fails {
				t.Errorf("verdict %q (fails=%v), want %q (fails=%v); worsening %v", got.Verdict, anyFail, tc.want, tc.fails, got.Worsening)
			}
		})
	}
}

func scale(m metricSet, name string, f float64) {
	v := m[name]
	v.Value *= f
	m[name] = v
}

// TestCompareCommand drives the subcommand through files: exit status,
// and every ratio printed with its base.
func TestCompareCommand(t *testing.T) {
	dir := t.TempDir()
	oldPath, newPath := filepath.Join(dir, "old.json"), filepath.Join(dir, "new.json")
	old, cur := syntheticRecord(), syntheticRecord()
	scale(cur.Workloads["write_durable"].EndToEnd, "throughput_keys_per_s", 0.7)
	if err := writeRecord(oldPath, old); err != nil {
		t.Fatal(err)
	}
	if err := writeRecord(newPath, cur); err != nil {
		t.Fatal(err)
	}
	var out, errOut bytes.Buffer
	if code := runCompare([]string{oldPath, newPath}, &out, &errOut); code != 1 {
		t.Fatalf("exit %d, want 1; stderr %s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "0.700× of 30000") || !strings.Contains(out.String(), verdictRegressed) {
		t.Errorf("output lacks the ratio with its base or the verdict:\n%s", out.String())
	}
	out.Reset()
	if code := runCompare([]string{oldPath, oldPath}, &out, &errOut); code != 0 {
		t.Fatalf("a record against itself exits %d:\n%s", code, out.String())
	}
	if code := runCompare([]string{oldPath}, &out, &errOut); code != 2 {
		t.Errorf("bad usage exits %d, want 2", code)
	}
}

// TestCompareSeveralRecordsPerSide folds three records per side: the
// medians are compared, and a side in which one run caught a slow spell
// reads as unresolved, not as regressed.
func TestCompareSeveralRecordsPerSide(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, throughput float64) string {
		r := syntheticRecord()
		m := r.Workloads["write_durable"].EndToEnd
		scale(m, "throughput_keys_per_s", throughput/30000)
		path := filepath.Join(dir, name)
		if err := writeRecord(path, r); err != nil {
			t.Fatal(err)
		}
		return path
	}
	steady := write("a.json", 30000) + "," + write("b.json", 30300) + "," + write("c.json", 29800)
	slower := write("d.json", 21000) + "," + write("e.json", 21200) + "," + write("f.json", 20900)
	spell := write("g.json", 30100) + "," + write("h.json", 20000) + "," + write("i.json", 21000)
	for _, tc := range []struct {
		name     string
		old, cur string
		want     string
		code     int
	}{
		{"steady against itself", steady, steady, verdictOK, 0},
		{"a real 30% loss", steady, slower, verdictRegressed, 1},
		{"a side that caught a spell", steady, spell, verdictUnresolved, 0},
	} {
		var out, errOut bytes.Buffer
		if code := runCompare([]string{tc.old, tc.cur}, &out, &errOut); code != tc.code {
			t.Errorf("%s: exit %d, want %d\n%s%s", tc.name, code, tc.code, out.String(), errOut.String())
		}
		found := false
		for _, line := range strings.Split(out.String(), "\n") {
			if strings.Contains(line, "throughput_keys_per_s") {
				found = strings.Contains(line, tc.want)
			}
		}
		if !found {
			t.Errorf("%s: throughput row lacks %q:\n%s", tc.name, tc.want, out.String())
		}
	}
}
