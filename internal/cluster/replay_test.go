package cluster

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
	"time"

	"dbdht/internal/cluster/transport"
	"dbdht/internal/core"
	"dbdht/internal/hashspace"
	"dbdht/internal/wal"
)

// journaledState is everything an snode journals, in comparable form.
// Deliberately absent, because nothing journals them: replica election
// metadata (replicaBucket's ver, group and prim), bucket write versions
// (bucket.ver), load rates, the route cache, the placement record, the
// membership view, and custody tombs — a drop record
// journals its tomb, but tombs are also adopted from and pruned by
// departure and recovery notices.
type journaledState struct {
	NextLocal int
	HasBoot   bool
	Boot      ownerRef
	Vnodes    map[VnodeName]walVnodeRec // Parts sorted
	Owned     map[hashspace.Partition]map[string]string
	Replica   map[hashspace.Partition]map[string]string
	Lpdrs     map[core.GroupID]lpdrState
	Led       []core.GroupID
	InDoubt   map[hashspace.Partition]migIntent
}

func stringValues(m map[string][]byte) map[string]string {
	out := make(map[string]string, len(m))
	for k, v := range m {
		out[k] = string(v)
	}
	return out
}

// dumpJournaled reads the journaled state out of an snode that no other
// goroutine is mutating (stopped, or freshly recovered and idle).
func dumpJournaled(s *Snode) journaledState {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := journaledState{
		NextLocal: s.nextLocal, HasBoot: s.hasBoot, Boot: s.boot,
		Vnodes:  make(map[VnodeName]walVnodeRec),
		Owned:   make(map[hashspace.Partition]map[string]string),
		Replica: make(map[hashspace.Partition]map[string]string),
		Lpdrs:   make(map[core.GroupID]lpdrState),
		InDoubt: make(map[hashspace.Partition]migIntent),
	}
	for name, vs := range s.vnodes {
		rec := walVnodeRec{Name: name, Group: vs.group, Level: vs.level, Joined: vs.joined}
		for p, bk := range vs.parts {
			rec.Parts = append(rec.Parts, p)
			bk.mu.RLock()
			st.Owned[p] = stringValues(bk.kv.m)
			bk.mu.RUnlock()
		}
		sort.Slice(rec.Parts, func(i, j int) bool { return rec.Parts[i].Prefix < rec.Parts[j].Prefix })
		st.Vnodes[name] = rec
	}
	for p, b := range s.rparts {
		st.Replica[p] = stringValues(b.kv.m)
	}
	for g, rep := range s.replicas {
		st.Lpdrs[g] = *rep
	}
	for g := range s.led {
		st.Led = append(st.Led, g)
	}
	sort.Slice(st.Led, func(i, j int) bool {
		return st.Led[i].Len < st.Led[j].Len || st.Led[i].Len == st.Led[j].Len && st.Led[i].Bits < st.Led[j].Bits
	})
	for p, in := range s.inDoubt {
		st.InDoubt[p] = *in
	}
	return st
}

// replayedTags counts, by tag, the records recovery of one snode
// directory replays: the snapshot's, then the log tail's from the cut its
// end record names.  It returns how many came from the tail.
func replayedTags(t *testing.T, snodeDir string, seen map[uint16]int) (tail int) {
	t.Helper()
	tag := func(payload []byte) uint16 { return uint16(transport.NewWireReader(payload).Uvarint()) }
	cut := uint64(0)
	err := wal.ReadSnapshot(filepath.Join(snodeDir, "snapshot"), func(payload []byte) error {
		seen[tag(payload)]++
		if rec, err := decodeWalRecord(payload); err != nil {
			return err
		} else if end, ok := rec.(*walSnapEndRec); ok {
			cut = end.Cut
		}
		return nil
	})
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		t.Fatal(err)
	}
	log, err := wal.Open(filepath.Join(snodeDir, "wal"), wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	if err := log.Replay(cut, func(_ uint64, payload []byte) error {
		seen[tag(payload)]++
		tail++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return tail
}

// TestReplayReproducesLiveState holds recovery to the live handlers: after
// a history that journals every kind of record, the journaled state of
// each surviving snode must equal what a fresh snode rebuilds from that
// snode's directory alone (snapshot + log tail).  Key read-back, which the
// other recovery tests check, cannot see a replay that rebuilds the right
// data under the wrong vnode, group, level or leadership.  The first case
// snapshots midway, so most of the history replays from the log tail; the
// second snapshots again after the whole history, so recovery reads the
// state every step built from the snapshot alone.
func TestReplayReproducesLiveState(t *testing.T) {
	t.Run("snapshot midway", func(t *testing.T) { testReplayReproducesLiveState(t, false) })
	t.Run("snapshot last", func(t *testing.T) { testReplayReproducesLiveState(t, true) })
}

func testReplayReproducesLiveState(t *testing.T, snapshotLast bool) {
	dir := t.TempDir()
	c, err := New(Config{
		Pmin: 4, Vmin: 2, Seed: 7, Replicas: 2,
		RPCTimeout:          10 * time.Second,
		AntiEntropyInterval: 20 * time.Millisecond,
		Durability: DurabilityConfig{
			Dir: dir, Fsync: wal.FsyncBatch,
			SnapshotInterval: -1, // explicit snapshots only
		},
	}, transport.NewMem())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	mustVnode := func(at transport.NodeID) VnodeName {
		t.Helper()
		name, _, err := c.CreateVnode(at)
		if err != nil {
			t.Fatal(err)
		}
		return name
	}
	for i := 0; i < 4; i++ {
		if _, err := c.AddSnode(); err != nil {
			t.Fatal(err)
		}
	}
	ids := c.Snodes()
	for i := 0; i < 3; i++ {
		mustVnode(ids[i%len(ids)])
	}
	want := ackedPuts(t, c, "early", 400)
	waitConverged(t, c)
	if err := c.SnapshotNow(); err != nil {
		t.Fatal(err)
	}

	// Everything below lands in the log tail behind the snapshot: a fifth
	// snode (boot route), joins that split the scope and then the group
	// (Vmin 2: the fifth member splits it), migrations with their intents,
	// installs and drops, replica syncs and drops as placement follows,
	// writes and replica writes, a vnode leave, and a crash whose
	// partitions the survivors promote.
	if _, err := c.AddSnode(); err != nil {
		t.Fatal(err)
	}
	ids = c.Snodes()
	var joined []VnodeName
	for i := 0; i < 6; i++ {
		joined = append(joined, mustVnode(ids[(i+3)%len(ids)]))
	}
	for k, v := range ackedPuts(t, c, "late", 400) {
		want[k] = v
	}
	if err := c.RemoveVnode(joined[1]); err != nil {
		t.Fatal(err)
	}
	waitConverged(t, c)
	if st := c.StatsTotal(); st.SplitAlls == 0 || st.GroupSplits == 0 || st.PartitionsSent == 0 {
		t.Fatalf("history too tame: %d scope splits, %d group splits, %d migrations", st.SplitAlls, st.GroupSplits, st.PartitionsSent)
	}
	victim := ids[1]
	if err := c.KillSnode(victim); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(15 * time.Second)
	for {
		res, err := c.MPut([]KV{{Key: "early-00000", Value: want["early-00000"]}, {Key: "late-00000", Value: want["late-00000"]}})
		if err == nil && res[0].OK() && res[1].OK() && c.StatsTotal().Promotions > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("writes did not resume after the crash")
		}
		time.Sleep(10 * time.Millisecond)
	}
	for k, v := range ackedPuts(t, c, "post", 200) {
		want[k] = v
	}
	verifyReadable(t, c, want)
	waitConverged(t, c)
	if snapshotLast {
		if err := c.SnapshotNow(); err != nil {
			t.Fatal(err)
		}
	}

	// Stop gracefully, then read the live side: a stopped snode's state is
	// what its last journaled record left.
	cfg := c.cfg
	live := c.liveSnodes()
	c.Close()
	tags := make(map[uint16]int)
	tail := 0
	for _, s := range live {
		tail += replayedTags(t, snodeDataDir(dir, s.id), tags)
	}
	if snapshotLast {
		// Anti-entropy runs until Close and may journal after the last
		// snapshot (a copy handed off, say), so the tail is
		// reported, not required to be empty.
		t.Logf("%d records replay from the log tails behind the last snapshots", tail)
	} else {
		for _, row := range walRecords {
			// An aborted handover is the one record this history has no
			// reason to write; TestMigrationIntentRecovery* covers it.
			if tags[row.tag] == 0 && row.tag != walTagMigIntentResolved {
				t.Errorf("no surviving snapshot or log tail holds a tag-%d record (%T): replay of it went unexercised", row.tag, row.new())
			}
		}
	}

	// The recovered side never ticks a background pass: what is compared
	// is recovery's result, not what anti-entropy then makes of it.
	cfg.AntiEntropyInterval = time.Hour
	for _, s := range live {
		rec, err := newSnode(s.id, cfg, transport.NewMem())
		if err != nil {
			t.Fatalf("snode %d: recovery: %v", s.id, err)
		}
		got, wantSt := dumpJournaled(rec), dumpJournaled(s)
		rec.stop()
		gv, wv := reflect.ValueOf(got), reflect.ValueOf(wantSt)
		for i := 0; i < gv.NumField(); i++ {
			if d := stateDiff(gv.Field(i), wv.Field(i)); d != "" {
				t.Errorf("snode %d: recovery does not reproduce %s:%s", s.id, gv.Type().Field(i).Name, d)
			}
		}
	}
}

// stateDiff describes how a recovered field differs from the live one,
// entry by entry for the map-valued fields; "" when they are equal.
func stateDiff(got, live reflect.Value) string {
	if reflect.DeepEqual(got.Interface(), live.Interface()) {
		return ""
	}
	if got.Kind() != reflect.Map {
		return fmt.Sprintf(" recovered %v, live %v", got, live)
	}
	var d string
	for _, k := range live.MapKeys() {
		if g := got.MapIndex(k); !g.IsValid() {
			d += fmt.Sprintf("\n  %v: missing after recovery", k)
		} else if !reflect.DeepEqual(g.Interface(), live.MapIndex(k).Interface()) {
			d += fmt.Sprintf("\n  %v: recovered %.200s, live %.200s", k, fmt.Sprint(g), fmt.Sprint(live.MapIndex(k)))
		}
	}
	for _, k := range got.MapKeys() {
		if !live.MapIndex(k).IsValid() {
			d += fmt.Sprintf("\n  %v: only after recovery", k)
		}
	}
	return d
}
