package invariant

import (
	"strings"
	"testing"
	"time"
)

// The checkers referee every nemesis run, so each gets histories built to
// the millisecond: rows that must pass, rows that must fail, and for the
// failures the key the verdict has to name.

var t0 = time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC)

func at(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }

// w is one write of a key's history: issued at startMs, acknowledged at
// ackMs (negative: never acknowledged).
type w struct {
	value          string
	startMs, ackMs int
}

// rd is one mid-run read starting at startMs (value "": a miss).
type rd struct {
	value   string
	startMs int
}

// history builds a Recorder holding exactly the given events for one key;
// RecordWrite would stamp acks with the wall clock.
func history(key string, writes []w, reads []rd) *Recorder {
	r := NewRecorder()
	h := &keyHist{}
	for _, wr := range writes {
		ev := writeEv{sum: ValueSum([]byte(wr.value)), start: at(wr.startMs)}
		if wr.ackMs >= 0 {
			ev.acked, ev.ackedAt = true, at(wr.ackMs)
		}
		h.writes = append(h.writes, ev)
	}
	if len(writes) > 0 {
		r.keys[key] = h
	}
	for _, x := range reads {
		ev := readEv{key: key, found: x.value != "", start: at(x.startMs), end: at(x.startMs + 1)}
		if ev.found {
			ev.sum = ValueSum([]byte(x.value))
		}
		r.reads = append(r.reads, ev)
	}
	return r
}

func checkVerdict(t *testing.T, row string, v Verdict, wantPass bool, key string) {
	t.Helper()
	if v.Pass != wantPass {
		t.Errorf("%s: Pass = %v, want %v (%s)", row, v.Pass, wantPass, v.Detail)
	}
	if !wantPass && !strings.Contains(v.Detail, `"`+key+`"`) {
		t.Errorf("%s: Detail %q does not name key %q", row, v.Detail, key)
	}
}

func TestCheckNoAckedLoss(t *testing.T) {
	const key = "writer3-k17"
	found := func(v string) map[string]ReadBack { return map[string]ReadBack{key: {Value: []byte(v), Found: true}} }
	for _, tc := range []struct {
		row    string
		writes []w
		final  map[string]ReadBack
		pass   bool
	}{
		{"clean: the acked value reads back", []w{{"v1", 0, 5}}, found("v1"), true},
		{"clean: the last of two acked values reads back", []w{{"v1", 0, 5}, {"v2", 10, 15}}, found("v2"), true},
		{"lossy: acked key absent from the read-back", []w{{"v1", 0, 5}}, map[string]ReadBack{}, false},
		{"lossy: acked key reads back as a miss", []w{{"v1", 0, 5}}, map[string]ReadBack{key: {}}, false},
		{"lossy: a value nobody wrote", []w{{"v1", 0, 5}}, found("garbage"), false},
		{"lossy: the overwritten acked value came back", []w{{"v1", 0, 5}, {"v2", 10, 15}}, found("v1"), false},
		{"lossy: an un-acked write from BEFORE the last ack came back", []w{{"v0", 0, -1}, {"v1", 10, 15}}, found("v0"), false},
		{"indeterminate: an un-acked later overwrite landed", []w{{"v1", 0, 5}, {"v2", 10, -1}}, found("v2"), true},
		{"indeterminate: an un-acked later overwrite did not land", []w{{"v1", 0, 5}, {"v2", 10, -1}}, found("v1"), true},
		{"nothing promised: only un-acked writes, key missing", []w{{"v1", 0, -1}}, map[string]ReadBack{}, true},
	} {
		v := history(key, tc.writes, nil).CheckNoAckedLoss(tc.final)
		checkVerdict(t, tc.row, v, tc.pass, key)
		if v.Name != "no-acked-write-loss" {
			t.Errorf("%s: verdict named %q", tc.row, v.Name)
		}
	}
}

func TestCheckBoundedStaleness(t *testing.T) {
	const key = "writer1-k2"
	const bound = 100 * time.Millisecond
	twoAcked := []w{{"v1", 0, 5}, {"v2", 1000, 1005}}
	rewritten := append(twoAcked, w{"v1", 2000, 2005})
	for _, tc := range []struct {
		row       string
		writes    []w
		reads     []rd
		pass      bool
		worstLagM float64
	}{
		{"clean: the latest value", twoAcked, []rd{{"v2", 1100}}, true, 0},
		{"clean: the old value before it was superseded", twoAcked, []rd{{"v1", 500}}, true, 0},
		{"stale within the bound", twoAcked, []rd{{"v1", 1055}}, true, 50},
		{"stale beyond the bound", twoAcked, []rd{{"v1", 1205}}, false, 200},
		{"a miss within the bound of the first ack", twoAcked, []rd{{"", 55}}, true, 0},
		{"a miss long after an old ack", twoAcked, []rd{{"", 305}}, false, 0},
		{"phantom: a value no write produced", twoAcked, []rd{{"v9", 1100}}, false, 0},
		{"an un-acked write's value is no phantom", []w{{"v1", 0, 5}, {"v2", 10, -1}}, []rd{{"v2", 500}}, true, 0},
		{"a read of a key this history never wrote is not judged", nil, []rd{{"v9", 100}}, true, 0},
		{"a key rewritten with an earlier value: the fresh copy", rewritten, []rd{{"v1", 2100}}, true, 0},
		{"read ended before the rewrite was issued: the old copy", rewritten, []rd{{"v1", 1500}}, false, 495},
	} {
		v := history(key, tc.writes, tc.reads).CheckBoundedStaleness(bound)
		checkVerdict(t, tc.row, v, tc.pass, key)
		if got := v.Metrics["worst_lag_ms"]; got != tc.worstLagM {
			t.Errorf("%s: worst_lag_ms = %v, want %v", tc.row, got, tc.worstLagM)
		}
	}
}

func TestCheckWriteAvailability(t *testing.T) {
	const bound = time.Second
	for _, tc := range []struct {
		row     string
		writes  []w
		pass    bool
		maxGapM float64
	}{
		{"every gap inside the bound", []w{{"v1", 0, 100}, {"v2", 200, 900}, {"v3", 1000, 1200}}, true, 800},
		{"a gap between two acks beyond the bound", []w{{"v1", 0, 100}, {"v2", 200, -1}, {"v3", 1500, 1600}}, false, 1500},
		{"writes still failing after the last ack", []w{{"v1", 0, 100}, {"v2", 1500, -1}}, false, 1400},
		{"an empty history", nil, false, 0},
	} {
		v := history("k", tc.writes, nil).CheckWriteAvailability(bound)
		if v.Pass != tc.pass || v.Name != "write-availability" {
			t.Errorf("%s: %s %v, want pass %v (%s)", tc.row, v.Name, v.Pass, tc.pass, v.Detail)
		}
		if got := v.Metrics["max_gap_ms"]; got != tc.maxGapM {
			t.Errorf("%s: max_gap_ms = %v, want %v", tc.row, got, tc.maxGapM)
		}
	}
}

func TestCheckReadAvailability(t *testing.T) {
	// Reads answered at 1 ms and from 3001 ms on, failing from 500 to
	// 2500 ms: a 3 s stretch with no answer.
	r := history("k", nil, []rd{{"v1", 0}, {"v1", 3000}, {"v1", 3100}})
	for ms := 500; ms <= 2500; ms += 500 {
		r.failed = append(r.failed, readEv{key: "k", start: at(ms)})
	}
	for _, tc := range []struct {
		bound time.Duration
		pass  bool
	}{{2 * time.Second, false}, {4 * time.Second, true}} {
		v := r.CheckReadAvailability(tc.bound)
		if v.Pass != tc.pass || v.Name != "read-availability" {
			t.Errorf("bound %v: %s %v, want pass %v (%s)", tc.bound, v.Name, v.Pass, tc.pass, v.Detail)
		}
		for m, want := range map[string]float64{"max_gap_ms": 3000, "reads_failed": 5, "failed_window_ms": 2000} {
			if got := v.Metrics[m]; got != want {
				t.Errorf("bound %v: %s = %v, want %v", tc.bound, m, got, want)
			}
		}
	}
	// Failed reads observe nothing, so staleness does not judge them.
	if v := r.CheckBoundedStaleness(time.Millisecond); v.Metrics["reads_checked"] != 0 {
		t.Errorf("bounded-staleness judged %v reads of a key never written", v.Metrics["reads_checked"])
	}
	none := NewRecorder()
	none.RecordFailedRead("k", at(0))
	if v := none.CheckReadAvailability(time.Hour); v.Pass {
		t.Errorf("a history with no answered read passes: %s", v.Detail)
	}
}

// TestCheckersJudgeEachKeyAlone mixes a broken key into a clean history:
// the verdict fails, counts one, and names that key and no other.
func TestCheckersJudgeEachKeyAlone(t *testing.T) {
	r := history("good", []w{{"v1", 0, 5}}, []rd{{"v1", 50}})
	bad := history("bad", []w{{"v1", 0, 5}, {"v2", 1000, 1005}}, []rd{{"v1", 1500}})
	r.keys["bad"], r.reads = bad.keys["bad"], append(r.reads, bad.reads...)
	final := map[string]ReadBack{"good": {Value: []byte("v1"), Found: true}}
	loss := r.CheckNoAckedLoss(final)
	checkVerdict(t, "one lost key among two", loss, false, "bad")
	if loss.Metrics["keys_checked"] != 2 || loss.Metrics["keys_lost"] != 1 || strings.Contains(loss.Detail, "good") {
		t.Errorf("loss verdict %+v", loss)
	}
	stale := r.CheckBoundedStaleness(100 * time.Millisecond)
	checkVerdict(t, "one stale read among two", stale, false, "bad")
	if stale.Metrics["reads_checked"] != 2 || stale.Metrics["reads_stale"] != 1 || strings.Contains(stale.Detail, "good") {
		t.Errorf("staleness verdict %+v", stale)
	}
	if got := r.AckedKeys(); len(got) != 2 || got[0] != "bad" || got[1] != "good" {
		t.Errorf("AckedKeys = %v, want [bad good]", got)
	}
}

func TestCheckConvergence(t *testing.T) {
	const poll = time.Millisecond
	// Never settles: the repair counter moves on every poll.
	var n int64
	v := CheckConvergence(time.Now(), 30*time.Millisecond, poll, 3, 5, func() (int64, float64) { n++; return n, 1 })
	if v.Pass || v.Metrics["convergence_ms"] != -1 || !strings.Contains(v.Detail, "at deadline") {
		t.Errorf("restless probe: %+v, want a failure at the deadline", v)
	}
	// Quiet repairs do not settle it while sigma stays above the ceiling.
	v = CheckConvergence(time.Now(), 30*time.Millisecond, poll, 3, 5, func() (int64, float64) { return 7, 9.5 })
	if v.Pass || v.Metrics["sigma_pct"] != 9.5 {
		t.Errorf("unbalanced probe: %+v, want a failure reporting sigma 9.5", v)
	}
	// Settles after 10 polls: passes once `settle` quiet polls follow, and
	// not a poll earlier.
	polls := 0
	healed := time.Now()
	v = CheckConvergence(healed, 5*time.Second, poll, 3, 5, func() (int64, float64) {
		polls++
		if polls <= 10 {
			return int64(polls), 2
		}
		return 10, 2
	})
	if !v.Pass || v.Name != "convergence-after-heal" {
		t.Fatalf("settling probe: %+v, want a pass", v)
	}
	if polls < 10+3 {
		t.Errorf("passed after %d polls, before the repairs went quiet for 3", polls)
	}
	if ms := v.Metrics["convergence_ms"]; ms < 0 || ms > float64(time.Since(healed).Milliseconds()) {
		t.Errorf("convergence_ms = %v, outside the run's own duration", ms)
	}
}
