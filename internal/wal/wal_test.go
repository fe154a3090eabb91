package wal

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
)

// collect replays the log from start into a slice of (seq, payload).
func collect(t *testing.T, l *Log, start uint64) (seqs []uint64, payloads [][]byte) {
	t.Helper()
	err := l.Replay(start, func(seq uint64, payload []byte) error {
		seqs = append(seqs, seq)
		payloads = append(payloads, append([]byte(nil), payload...))
		return nil
	})
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	return seqs, payloads
}

func TestAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Fsync: FsyncBatch})
	if err != nil {
		t.Fatal(err)
	}
	var want [][]byte
	for i := 0; i < 100; i++ {
		p := []byte(fmt.Sprintf("record-%03d", i))
		want = append(want, p)
		seq := l.Append(p)
		if seq != uint64(i+1) {
			t.Fatalf("append %d: seq %d", i, seq)
		}
	}
	if !l.WaitDurable(100) {
		t.Fatal("WaitDurable(100) failed")
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	seqs, payloads := collect(t, l2, 0)
	if len(seqs) != 100 {
		t.Fatalf("replayed %d records, want 100", len(seqs))
	}
	for i := range seqs {
		if seqs[i] != uint64(i+1) || !bytes.Equal(payloads[i], want[i]) {
			t.Fatalf("record %d: seq %d payload %q", i, seqs[i], payloads[i])
		}
	}
	if got := l2.NextSeq(); got != 101 {
		t.Fatalf("NextSeq after reopen: %d, want 101", got)
	}
}

// tailSegment returns the path of the highest-numbered segment file.
func tailSegment(t *testing.T, dir string) string {
	t.Helper()
	segs, err := listSegments(dir)
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segments in %s: %v", dir, err)
	}
	return filepath.Join(dir, segName(segs[len(segs)-1]))
}

func TestTornTailRecovery(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Fsync: FsyncBatch})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		l.Append([]byte(fmt.Sprintf("rec-%d", i)))
	}
	l.WaitDurable(10)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Tear the tail mid-record: drop the last 3 bytes.
	tail := tailSegment(t, dir)
	fi, err := os.Stat(tail)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(tail, fi.Size()-3); err != nil {
		t.Fatal(err)
	}

	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if torn := l2.Stats().TornBytes.Load(); torn == 0 {
		t.Fatal("expected torn bytes to be recorded")
	}
	seqs, _ := collect(t, l2, 0)
	if len(seqs) != 9 {
		t.Fatalf("replayed %d records after torn tail, want 9", len(seqs))
	}
	// Appends continue exactly after the last complete record.
	if seq := l2.Append([]byte("after-recovery")); seq != 10 {
		t.Fatalf("post-recovery append got seq %d, want 10", seq)
	}
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
	l3, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l3.Close()
	seqs, payloads := collect(t, l3, 0)
	if len(seqs) != 10 || string(payloads[9]) != "after-recovery" {
		t.Fatalf("after re-append: %d records, last %q", len(seqs), payloads[len(payloads)-1])
	}
}

func TestCorruptCRCRecovery(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Fsync: FsyncBatch})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		l.Append([]byte(fmt.Sprintf("rec-%d", i)))
	}
	l.WaitDurable(5)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Flip one byte inside the LAST record's payload.
	tail := tailSegment(t, dir)
	data, err := os.ReadFile(tail)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xFF
	if err := os.WriteFile(tail, data, 0o644); err != nil {
		t.Fatal(err)
	}

	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	seqs, _ := collect(t, l2, 0)
	if len(seqs) != 4 {
		t.Fatalf("replayed %d records after CRC corruption, want 4", len(seqs))
	}
}

func TestSegmentRotationAndTruncate(t *testing.T) {
	dir := t.TempDir()
	// Tiny segments: every flush round rotates.
	l, err := Open(dir, Options{Fsync: FsyncBatch, SegmentBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	const n = 50
	for i := 0; i < n; i++ {
		l.Append([]byte(fmt.Sprintf("record-payload-%03d", i)))
		l.WaitDurable(uint64(i + 1)) // force a flush (and rotation check) per record
	}
	segs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 3 {
		t.Fatalf("expected multiple segments, got %d", len(segs))
	}
	// Truncate through seq 30: sealed segments entirely ≤ 30 disappear,
	// and replay from 31 still yields records 31..n.
	if err := l.TruncateThrough(30); err != nil {
		t.Fatal(err)
	}
	seqs, _ := collect(t, l, 31)
	if len(seqs) != n-30 || seqs[0] != 31 {
		t.Fatalf("replay from 31: %d records starting at %v", len(seqs), seqs[:1])
	}
	left, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(left) >= len(segs) {
		t.Fatalf("truncation deleted nothing: %d → %d segments", len(segs), len(left))
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestGroupCommitConcurrent(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Fsync: FsyncBatch})
	if err != nil {
		t.Fatal(err)
	}
	const (
		writers = 8
		each    = 200
	)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				seq := l.Append([]byte(fmt.Sprintf("w%d-%d", w, i)))
				if seq == 0 {
					t.Errorf("append refused")
					return
				}
				if !l.WaitDurable(seq) {
					t.Errorf("WaitDurable(%d) failed", seq)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	appended := l.Stats().Appends.Load()
	fsyncs := l.Stats().Fsyncs.Load()
	if appended != writers*each {
		t.Fatalf("appended %d, want %d", appended, writers*each)
	}
	if fsyncs >= appended {
		t.Fatalf("group commit did not batch: %d fsyncs for %d appends", fsyncs, appended)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	seqs, _ := collect(t, l2, 0)
	if len(seqs) != writers*each {
		t.Fatalf("replayed %d, want %d", len(seqs), writers*each)
	}
}

func TestAbandonKeepsDurablePrefix(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Fsync: FsyncBatch})
	if err != nil {
		t.Fatal(err)
	}
	const durable = 20
	for i := 0; i < durable; i++ {
		l.Append([]byte(fmt.Sprintf("acked-%d", i)))
	}
	if !l.WaitDurable(durable) {
		t.Fatal("WaitDurable failed")
	}
	// Unacknowledged tail, then crash.
	for i := 0; i < 100; i++ {
		l.Append([]byte(fmt.Sprintf("unacked-%d", i)))
	}
	l.Abandon()

	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	seqs, _ := collect(t, l2, 0)
	if len(seqs) < durable {
		t.Fatalf("crash lost acknowledged records: %d < %d", len(seqs), durable)
	}
	// Whatever survived must be a contiguous prefix.
	for i, seq := range seqs {
		if seq != uint64(i+1) {
			t.Fatalf("non-contiguous replay at %d: seq %d", i, seq)
		}
	}
}

func TestSnapshotRoundTripAndCorruption(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "state.snap")
	records := [][]byte{[]byte("first record"), bytes.Repeat([]byte("x"), 300<<10), []byte("last")}
	var st Stats
	if err := st.WriteSnapshot(path, func(add func([]byte) error) error {
		for _, r := range records {
			if err := add(r); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	read := func() ([][]byte, error) {
		var got [][]byte
		err := ReadSnapshot(path, func(p []byte) error {
			got = append(got, bytes.Clone(p))
			return nil
		})
		return got, err
	}
	got, err := read()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, records) {
		t.Fatalf("round trip: %d records back, want %d", len(got), len(records))
	}
	if st.SnapWrites.Load() != 1 {
		t.Fatalf("SnapWrites = %d", st.SnapWrites.Load())
	}

	// A failing fill leaves the published file as it was.
	boom := errors.New("boom")
	if err := st.WriteSnapshot(path, func(add func([]byte) error) error {
		_ = add([]byte("partial"))
		return boom
	}); !errors.Is(err, boom) {
		t.Fatalf("aborted write returned %v", err)
	}
	if got, err := read(); err != nil || len(got) != len(records) {
		t.Fatalf("after an aborted write: %d records, %v", len(got), err)
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatalf("aborted write left its temporary file: %v", err)
	}

	// A flipped payload byte or a torn tail must fail the read, not end
	// it: a snapshot has no zero fill to stop at.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for name, bad := range map[string][]byte{
		"flipped byte": append(append([]byte(nil), data[:len(data)-2]...), data[len(data)-2]^0x40, data[len(data)-1]),
		"torn tail":    data[:len(data)-3],
	} {
		if err := os.WriteFile(path, bad, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := read(); err == nil {
			t.Errorf("%s: damaged snapshot read succeeded", name)
		}
	}
}

func TestFsyncModes(t *testing.T) {
	for _, mode := range []FsyncMode{FsyncOff, FsyncBatch} {
		t.Run(mode.String(), func(t *testing.T) {
			dir := t.TempDir()
			l, err := Open(dir, Options{Fsync: mode})
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 10; i++ {
				seq := l.Append([]byte(fmt.Sprintf("r%d", i)))
				if !l.WaitDurable(seq) {
					t.Fatalf("WaitDurable(%d) failed", seq)
				}
			}
			if mode == FsyncOff && l.Stats().Fsyncs.Load() != 0 {
				t.Fatalf("FsyncOff issued %d fsyncs", l.Stats().Fsyncs.Load())
			}
			if mode != FsyncOff && l.Stats().Fsyncs.Load() == 0 {
				t.Fatal("no fsync issued")
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			l2, err := Open(dir, Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer l2.Close()
			seqs, _ := collect(t, l2, 0)
			if len(seqs) != 10 {
				t.Fatalf("replayed %d records, want 10", len(seqs))
			}
		})
	}
}

func TestParseFsyncMode(t *testing.T) {
	for s, want := range map[string]FsyncMode{"off": FsyncOff, "batch": FsyncBatch} {
		got, err := ParseFsyncMode(s)
		if err != nil || got != want {
			t.Fatalf("ParseFsyncMode(%q) = %v, %v", s, got, err)
		}
	}
	for _, s := range []string{"sometimes", "always"} {
		if _, err := ParseFsyncMode(s); err == nil {
			t.Fatalf("ParseFsyncMode accepted %q", s)
		}
	}
}
