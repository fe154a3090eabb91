package wal

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// rec is the i-th test payload; recLen its framed size on disk.
func rec(i int) []byte { return []byte(fmt.Sprintf("record-%04d", i)) }

const recLen = recHeaderLen + len("record-0000")

// crashedLog writes n acknowledged records and abandons the log — the
// closest thing to a killed process: the tail keeps its zero-filled
// suffix.  It returns the directory and the tail segment's path.
func crashedLog(t *testing.T, n int) (dir, tail string) {
	t.Helper()
	dir = t.TempDir()
	l, err := Open(dir, Options{Fsync: FsyncBatch, SegmentBytes: 1 << 16})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= n; i++ {
		l.Append(rec(i))
	}
	if !l.WaitDurable(uint64(n)) {
		t.Fatal("WaitDurable failed")
	}
	l.Abandon()
	return dir, tailSegment(t, dir)
}

// wantReplay asserts the log replays exactly records 1..n, in order.
func wantReplay(t *testing.T, l *Log, n int) {
	t.Helper()
	seqs, payloads := collect(t, l, 0)
	if len(seqs) != n {
		t.Fatalf("replayed %d records, want %d", len(seqs), n)
	}
	for i := range seqs {
		if seqs[i] != uint64(i+1) || !bytes.Equal(payloads[i], rec(i+1)) {
			t.Fatalf("record %d replayed as seq %d %q", i+1, seqs[i], payloads[i])
		}
	}
}

// dirBytes sums the sizes of every file in dir and lists their names.
func dirBytes(t *testing.T, dir string) (total int64, names []string) {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		fi, err := e.Info()
		if err != nil {
			t.Fatal(err)
		}
		total += fi.Size()
		names = append(names, e.Name())
	}
	return total, names
}

// TestRecoveryTailShapes: what a crash can leave after the last complete
// record, and what recovery makes of it.
func TestRecoveryTailShapes(t *testing.T) {
	const n = 10
	end := int64(n * recLen) // where the records end in the tail
	for _, tc := range []struct {
		name     string
		damage   func(t *testing.T, f *os.File)
		records  int
		tornFrom int64 // garbage starts here …
		tornTo   int64 // … and its last non-zero byte is right before here
	}{
		{
			name:    "zero suffix only",
			damage:  func(*testing.T, *os.File) {},
			records: n, // nothing torn: the suffix is the preallocation
		},
		{
			name: "tear inside the last record",
			damage: func(t *testing.T, f *os.File) {
				// The device persisted the record's head but not its last
				// 4 bytes: they still read as the zero fill.
				if _, err := f.WriteAt(make([]byte, 4), end-4); err != nil {
					t.Fatal(err)
				}
			},
			records: n - 1, tornFrom: end - int64(recLen), tornTo: end - 4,
		},
		{
			name: "garbage after a valid prefix",
			damage: func(t *testing.T, f *os.File) {
				if _, err := f.WriteAt([]byte{0xde, 0xad, 0, 0xbe, 0xef}, end+100); err != nil {
					t.Fatal(err)
				}
			},
			records: n, tornFrom: end, tornTo: end + 105,
		},
		{
			name: "torn header",
			damage: func(t *testing.T, f *os.File) {
				if _, err := f.WriteAt([]byte{0, 0, 0, 11, 0x12}, end); err != nil { // length + 1 CRC byte
					t.Fatal(err)
				}
			},
			records: n, tornFrom: end, tornTo: end + 5,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir, tail := crashedLog(t, n)
			if fi, err := os.Stat(tail); err != nil || fi.Size() != 1<<16 {
				t.Fatalf("crashed tail: size %v err %v, want the full preallocation", fi.Size(), err)
			}
			f, err := os.OpenFile(tail, os.O_RDWR, 0)
			if err != nil {
				t.Fatal(err)
			}
			tc.damage(t, f)
			f.Close()

			l, err := Open(dir, Options{Fsync: FsyncBatch, SegmentBytes: 1 << 16})
			if err != nil {
				t.Fatal(err)
			}
			defer l.Close()
			if got, want := l.Stats().TornBytes.Load(), tc.tornTo-tc.tornFrom; got != want {
				t.Fatalf("TornBytes = %d, want %d", got, want)
			}
			wantReplay(t, l, tc.records)
			if got := l.NextSeq(); got != uint64(tc.records+1) {
				t.Fatalf("NextSeq = %d, want %d", got, tc.records+1)
			}
			// The recovered tail is sealed: cut to its records.
			if fi, err := os.Stat(tail); err != nil || fi.Size() != int64(tc.records*recLen) {
				t.Fatalf("recovered tail: size %v err %v, want %d", fi.Size(), err, tc.records*recLen)
			}
		})
	}
}

// TestReopenAfterCrashResumesInFreshSegment: recovery never appends to the
// crashed tail; the next record opens a new prepared segment named after
// it, and sequence numbers run on without a gap.
func TestReopenAfterCrashResumesInFreshSegment(t *testing.T) {
	dir, _ := crashedLog(t, 7)
	if err := os.WriteFile(filepath.Join(dir, "3.prep"), make([]byte, 4096), 0o644); err != nil {
		t.Fatal(err) // what a crash mid-prepare leaves behind
	}
	l, err := Open(dir, Options{Fsync: FsyncBatch, SegmentBytes: 1 << 16})
	if err != nil {
		t.Fatal(err)
	}
	for i := 8; i <= 12; i++ {
		if seq := l.Append(rec(i)); seq != uint64(i) {
			t.Fatalf("append after recovery got seq %d, want %d", seq, i)
		}
	}
	if !l.WaitDurable(12) {
		t.Fatal("WaitDurable failed")
	}
	segs, err := listSegments(dir)
	if err != nil || len(segs) != 2 || segs[0] != 1 || segs[1] != 8 {
		t.Fatalf("segments %v (err %v), want [1 8]", segs, err)
	}
	l.Abandon() // crash again: two generations of tails to recover
	l, err = Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	wantReplay(t, l, 12)
	if l.Stats().TornBytes.Load() != 0 {
		t.Fatal("zero fill reported as torn")
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if total, names := dirBytes(t, dir); len(names) != 2 || total != 12*int64(recLen) {
		t.Fatalf("after recovery and close: %d bytes in %v, want the two segments cut to their 12 records", total, names)
	}
}

// TestCloseLeavesOnlyWrittenBytes: sealed segments and a gracefully closed
// tail are cut to their records and the prepared segment is gone, so disk
// use is exactly the framed records — in every fsync mode.
func TestCloseLeavesOnlyWrittenBytes(t *testing.T) {
	for _, mode := range []FsyncMode{FsyncOff, FsyncBatch} {
		t.Run(mode.String(), func(t *testing.T) {
			dir := t.TempDir()
			l, err := Open(dir, Options{Fsync: mode, SegmentBytes: 4 * int64(recLen)})
			if err != nil {
				t.Fatal(err)
			}
			const n = 30
			for i := 1; i <= n; i++ {
				l.WaitDurable(l.Append(rec(i)))
				if mode == FsyncOff && i%3 == 0 {
					if err := l.Sync(); err != nil { // FsyncOff flushes on its own clock; force rounds
						t.Fatal(err)
					}
				}
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			total, names := dirBytes(t, dir)
			if total != n*int64(recLen) {
				t.Fatalf("on-disk bytes %d, want %d (files %v)", total, n*recLen, names)
			}
			for _, name := range names {
				if _, ok := parseSegName(name); !ok {
					t.Fatalf("leftover file %q after Close", name)
				}
			}
			if len(names) < 2 {
				t.Fatalf("expected rotations, got files %v", names)
			}
			l2, err := Open(dir, Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer l2.Close()
			wantReplay(t, l2, n)
		})
	}
}

// TestEmptyAppendRefused: a zero length is the end-of-log marker, so an
// empty record must never be written — and must not burn a sequence.
func TestEmptyAppendRefused(t *testing.T) {
	l, err := Open(t.TempDir(), Options{Fsync: FsyncBatch})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for _, empty := range []func() uint64{
		func() uint64 { return l.Append(nil) },
		func() uint64 { return l.Append([]byte{}) },
		func() uint64 { return l.AppendWith(func(b []byte) []byte { return b }) },
	} {
		if seq := empty(); seq != 0 {
			t.Fatalf("empty append accepted as seq %d", seq)
		}
	}
	if seq := l.Append([]byte("x")); seq != 1 {
		t.Fatalf("first real append got seq %d, want 1", seq)
	}
	if l.WaitDurable(0) {
		t.Fatal("WaitDurable(0) must report failure")
	}
	if !l.WaitDurable(1) {
		t.Fatal("WaitDurable(1) failed")
	}
	seqs, _ := collect(t, l, 0)
	if len(seqs) != 1 {
		t.Fatalf("replayed %d records, want 1", len(seqs))
	}
}

// TestRotationOutrunsPrepare: segments of eight records, filled one flush
// round after another, so nearly every round needs a segment the pipeline
// has only just started to prepare.  The flusher waits for it; appends
// must keep landing in memory meanwhile (Append never waits for a
// segment), and every record must come back exactly once, in order,
// across all the segments it took.
func TestRotationOutrunsPrepare(t *testing.T) {
	dir := t.TempDir()
	const perSeg, n = 8, 1600
	l, err := Open(dir, Options{Fsync: FsyncBatch, SegmentBytes: perSeg * int64(recLen)})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= n; i++ {
		if seq := l.Append(rec(i)); seq != uint64(i) {
			t.Fatalf("append %d got seq %d", i, seq)
		}
		if i%perSeg == 0 {
			// Let the flusher take a round before the next segment's worth
			// arrives: rounds stay small, so they keep crossing segments.
			rounds := l.Stats().Flushes.Load()
			waitFor(t, "a flush round", func() bool { return l.Stats().Flushes.Load() > rounds })
		}
	}
	if !l.WaitDurable(n) {
		t.Fatal("WaitDurable failed")
	}
	rot, prep := l.Stats().Rotations.Load(), l.Stats().Prepared.Load()
	t.Logf("%d records: %d flush rounds, %d rotations, %d segments prepared", n, l.Stats().Flushes.Load(), rot, prep)
	if rot < n/(4*perSeg) {
		t.Fatalf("only %d rotations for %d records in segments of %d", rot, n, perSeg)
	}
	if prep < rot+1 {
		t.Fatalf("%d segments prepared for %d rotations", prep, rot)
	}
	wantReplay(t, l, n) // live replay: sealed segments plus the zero-suffixed active one
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	wantReplay(t, l2, n)
}

// TestFsyncErrorRewindsAndRewrites: a failed sync leaves the round's bytes
// in the segment past the tracked offset; the retry must overwrite them in
// place — growing, as more records arrive — so that a crash right after
// replays every record exactly once with no hole in between.
func TestFsyncErrorRewindsAndRewrites(t *testing.T) {
	dir := t.TempDir()
	f := NewFaults(5)
	l, err := Open(dir, Options{Fsync: FsyncBatch, Faults: f, SegmentBytes: 1 << 16})
	if err != nil {
		t.Fatal(err)
	}
	f.SetFsyncErrorRate(1)
	for i := 1; i <= 5; i++ {
		l.Append(rec(i))
	}
	waitFor(t, "a failed sync", func() bool { return l.Stats().FsyncErrors.Load() > 0 })
	for i := 6; i <= 10; i++ { // the retry round is longer than the failed one
		l.Append(rec(i))
	}
	before := l.Stats().FsyncErrors.Load()
	waitFor(t, "a failed retry", func() bool { return l.Stats().FsyncErrors.Load() > before })
	f.Heal()
	if !l.WaitDurable(10) {
		t.Fatal("WaitDurable failed after the disk healed")
	}
	l.Abandon() // crash with the retried bytes as the whole log

	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	wantReplay(t, l2, 10)
	if torn := l2.Stats().TornBytes.Load(); torn != 0 {
		t.Fatalf("rewritten log reported %d torn bytes", torn)
	}
	if segs, _ := listSegments(dir); len(segs) != 1 {
		t.Fatalf("segments %v: the retry must stay in the segment it failed in", segs)
	}
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}
