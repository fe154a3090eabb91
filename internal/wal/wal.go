package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"log/slog"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"dbdht/internal/metrics"
)

// FsyncMode selects the durability class of acknowledged appends.
type FsyncMode int

const (
	// FsyncOff never calls fsync: appends are buffered and flushed to the
	// OS in the background.  Survives a graceful close, not a crash.
	FsyncOff FsyncMode = iota
	// FsyncBatch group-commits: WaitDurable returns only after an fsync
	// covering the record, and concurrent waiters share one fsync.
	FsyncBatch
)

// ParseFsyncMode parses the -fsync flag values "off" and "batch".
func ParseFsyncMode(s string) (FsyncMode, error) {
	switch s {
	case "off":
		return FsyncOff, nil
	case "batch":
		return FsyncBatch, nil
	}
	return 0, fmt.Errorf("wal: unknown fsync mode %q (want off or batch)", s)
}

func (m FsyncMode) String() string {
	switch m {
	case FsyncOff:
		return "off"
	case FsyncBatch:
		return "batch"
	}
	return fmt.Sprintf("FsyncMode(%d)", int(m))
}

// Options parameterizes a log.
type Options struct {
	// Fsync selects the durability class.  The zero value is FsyncOff:
	// acknowledged records are NOT synced — callers that need ack-implies-
	// on-disk must pick FsyncBatch explicitly.
	Fsync FsyncMode
	// SegmentBytes is the size segments are created at (default 16 MiB):
	// a flush round that no longer fits the active segment moves to the
	// next one.
	SegmentBytes int64
	// Logger receives recovery and I/O-failure events.  Nil discards.
	Logger *slog.Logger
	// Faults optionally injects disk faults (slow or failing fsyncs) into
	// the flush path — the nemesis hook for fault-tolerance scenarios.
	// Nil means a healthy disk.
	Faults *Faults
}

func (o Options) withDefaults() Options {
	if o.SegmentBytes == 0 {
		o.SegmentBytes = 16 << 20
	}
	if o.Logger == nil {
		o.Logger = slog.New(slog.DiscardHandler)
	}
	return o
}

// Stats counts a log's lifetime work; fields are atomic so samplers never
// contend with appenders.
type Stats struct {
	Appends     atomic.Int64 // records appended
	Bytes       atomic.Int64 // payload bytes appended (framing excluded)
	Fsyncs      atomic.Int64 // fsync calls issued
	FsyncErrors atomic.Int64 // failed fsyncs (real or injected); the batch re-buffers and retries
	Flushes     atomic.Int64 // flush rounds (buffered bytes handed to the OS)
	Rotations   atomic.Int64 // segment files opened after the first
	Prepared    atomic.Int64 // segment files created ahead of use by the prepare step
	Truncated   atomic.Int64 // segment files deleted by TruncateThrough
	TornBytes   atomic.Int64 // garbage bytes cut from segments at recovery (zero fill excluded)
	Replayed    atomic.Int64 // records handed to Replay callbacks
	SnapWrites  atomic.Int64 // snapshot files written (WriteSnapshot)
}

// StatsSnapshot is a plain-value copy of Stats.
type StatsSnapshot struct {
	Appends, Bytes, Fsyncs, FsyncErrors, Flushes int64
	Rotations, Prepared, Truncated, TornBytes    int64
	Replayed, SnapWrites                         int64
}

// Snapshot copies the counters.
func (s *Stats) Snapshot() StatsSnapshot {
	return StatsSnapshot{
		Appends: s.Appends.Load(), Bytes: s.Bytes.Load(),
		Fsyncs: s.Fsyncs.Load(), FsyncErrors: s.FsyncErrors.Load(),
		Flushes:   s.Flushes.Load(),
		Rotations: s.Rotations.Load(), Prepared: s.Prepared.Load(),
		Truncated: s.Truncated.Load(),
		TornBytes: s.TornBytes.Load(), Replayed: s.Replayed.Load(),
		SnapWrites: s.SnapWrites.Load(),
	}
}

// Fold accumulates another snapshot into this one.
func (a *StatsSnapshot) Fold(b StatsSnapshot) {
	a.Appends += b.Appends
	a.Bytes += b.Bytes
	a.Fsyncs += b.Fsyncs
	a.FsyncErrors += b.FsyncErrors
	a.Flushes += b.Flushes
	a.Rotations += b.Rotations
	a.Prepared += b.Prepared
	a.Truncated += b.Truncated
	a.TornBytes += b.TornBytes
	a.Replayed += b.Replayed
	a.SnapWrites += b.SnapWrites
}

var crcTable = crc32.MakeTable(crc32.Castagnoli)

const recHeaderLen = 8 // uint32 length + uint32 CRC

// bufferBytes is the I/O unit: at fsync=off the flusher lets this much
// accumulate before it writes early, and the slab it recycles between
// rounds stays within a few of them.  Replay and snapshot files are read
// and written through buffers of the same size.
const bufferBytes = 256 << 10

// maxRecord bounds one record's payload so a corrupt length prefix can
// never drive an unbounded allocation at replay (matches the transport
// frame limit).
const maxRecord = 256 << 20

// flushPollInterval is the FsyncOff flusher's cadence: long enough that
// a loaded snode coalesces thousands of records into one write syscall
// (per-record write() churn measurably taxes the serving path), short
// enough that an acknowledged-but-unsynced record reaches the OS within
// a few milliseconds.
const flushPollInterval = 5 * time.Millisecond

var errClosed = errors.New("wal: log closed")

// Log is an append-only, segmented write-ahead log.  Append and
// WaitDurable are safe for concurrent use; Replay and TruncateThrough
// must not race appends of the segments they touch (the cluster layer
// replays before serving and truncates only fully-snapshotted segments).
type Log struct {
	dir  string
	opts Options

	mu      sync.Mutex
	nextSeq uint64 // sequence the next Append returns; guarded by mu
	buf     []byte // records buffered since the last flush; guarded by mu
	spare   []byte // recycled flush slab (swapped with buf each round); guarded by mu
	closed  bool   // guarded by mu

	// Group commit: appenders publish the seq they need durable and wait
	// on cond; the flusher goroutine flushes (and syncs, per mode) and
	// advances durableSeq.  The flusher itself is woken through the wake
	// channel, NOT the cond — an append must never pay a broadcast that
	// also wakes every durability waiter.
	cond       *sync.Cond    // broadcasts durableSeq advances and close
	wake       chan struct{} // capacity 1: flusher work signal
	durableSeq uint64        // highest seq known flushed (+synced, per mode); guarded by mu
	flushedSeq uint64        // highest seq handed to the OS; guarded by mu
	done       chan struct{} // closed when the flusher exits

	// flushMu serializes flushThrough — the buffer grab and the file write
	// happen under it, so records reach the file in append order even when
	// Sync races the flusher goroutine — and owns the active segment.
	flushMu sync.Mutex
	seg     *os.File // active segment; nil until the first flush after Open; guarded by flushMu
	segOff  int64    // end of the records written to seg; guarded by flushMu
	// segTorn marks a failed write or sync whose bytes may sit past segOff:
	// the retry must overwrite them in place, so the segment may not rotate
	// until a round succeeds.
	segTorn bool // guarded by flushMu

	// Segment pipeline (segment.go): prepared hands the flusher the next
	// ready-made segment, retired takes the one it just left.
	prepared chan preparedSeg
	retired  chan retiredSeg // capacity 1: the pipeline drains it between prepares
	stop     chan struct{}   // closed (under flushMu) once the flusher exited
	pipeDone chan struct{}

	log      *slog.Logger
	stats    Stats
	fsyncLat *metrics.Histogram
}

// Open opens (creating if needed) the log in dir and recovers it: every
// segment is scanned record by record and cut back to its last complete
// one, so a crash mid-append never poisons the log.  Appends resume in a
// fresh segment numbered right after the last recovered record.
func Open(dir string, opts Options) (*Log, error) {
	opts = opts.withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	l := &Log{
		dir:      dir,
		opts:     opts,
		nextSeq:  1,
		wake:     make(chan struct{}, 1),
		done:     make(chan struct{}),
		prepared: make(chan preparedSeg),
		retired:  make(chan retiredSeg, 1),
		stop:     make(chan struct{}),
		pipeDone: make(chan struct{}),
		log:      opts.Logger,
		fsyncLat: metrics.NewLatencyHistogram(),
	}
	l.cond = sync.NewCond(&l.mu)
	if err := removePrepared(dir); err != nil {
		return nil, err
	}
	segs, err := listSegments(dir)
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	for _, first := range segs {
		n, err := l.recoverSegment(filepath.Join(dir, segName(first)))
		if err != nil {
			return nil, err
		}
		l.nextSeq = first + uint64(n)
	}
	// Everything recovered is on disk already.
	l.flushedSeq = l.nextSeq - 1
	l.durableSeq = l.flushedSeq
	go l.segmentPipeline()
	go l.flusher()
	return l, nil
}

// NextSeq returns the sequence the next Append will be assigned — the
// snapshot cut point: every record at or above it is outside the
// snapshot and must replay on top.
func (l *Log) NextSeq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.nextSeq
}

// Dir returns the log's directory.
func (l *Log) Dir() string { return l.dir }

// Mode returns the configured fsync mode.
func (l *Log) Mode() FsyncMode { return l.opts.Fsync }

// Stats exposes the log's counters.
func (l *Log) Stats() *Stats { return &l.stats }

// FsyncLatency is the distribution of the sync call alone — the device's
// share of a durability wait, without the queueing in front of it.
func (l *Log) FsyncLatency() *metrics.Histogram { return l.fsyncLat }

// Append frames payload as one record, buffers it, and returns its
// sequence.  It never blocks on I/O (only on the log's own mutex), so it
// is safe to call under fine-grained data locks; durability is claimed
// separately via WaitDurable.  Appending an empty payload, or to a
// closed log, returns 0.
func (l *Log) Append(payload []byte) uint64 {
	return l.AppendWith(func(buf []byte) []byte { return append(buf, payload...) })
}

// AppendWith is Append with the payload encoded by enc DIRECTLY into the
// log's buffer — the hot-path variant that skips the intermediate
// allocation and copy a pre-encoded []byte would cost.  enc must only
// append to (and return) the slice it is given.
func (l *Log) AppendWith(enc func(buf []byte) []byte) uint64 {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return 0
	}
	start := len(l.buf)
	l.buf = append(l.buf, 0, 0, 0, 0, 0, 0, 0, 0) // header back-patched below
	l.buf = enc(l.buf)
	payload := l.buf[start+recHeaderLen:]
	if len(payload) == 0 {
		// A zero length is the end-of-log marker (segments are zero-filled
		// ahead of use), so an empty record could never be replayed.
		l.buf = l.buf[:start]
		l.mu.Unlock()
		return 0
	}
	seq := l.nextSeq
	l.nextSeq++
	binary.BigEndian.PutUint32(l.buf[start:], uint32(len(payload)))
	binary.BigEndian.PutUint32(l.buf[start+4:], crc32.Checksum(payload, crcTable))
	l.stats.Appends.Add(1)
	l.stats.Bytes.Add(int64(len(payload)))
	l.mu.Unlock()
	// FsyncOff appends don't wake the flusher: nobody awaits the ack, so
	// the flusher polls on a millisecond cadence instead — the append
	// path stays free of channel operations and goroutine wakeups.
	if l.opts.Fsync != FsyncOff {
		l.kick()
	}
	return seq
}

// kick wakes the flusher without blocking (the channel holds one
// pending signal; a lost extra signal is fine — the flusher drains the
// whole buffer every round).
func (l *Log) kick() {
	select {
	case l.wake <- struct{}{}:
	default:
	}
}

// WaitDurable blocks until the record at seq satisfies the log's
// durability class: immediately under FsyncOff, after a covering sync
// under FsyncBatch.  Returns false if the log closed first.
func (l *Log) WaitDurable(seq uint64) bool {
	if l.opts.Fsync == FsyncOff || seq == 0 {
		return seq != 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	for l.durableSeq < seq && !l.closed {
		l.cond.Wait()
	}
	return l.durableSeq >= seq
}

// Sync forces everything appended so far to disk (synced regardless of
// mode) — used at snapshot barriers and graceful close.
func (l *Log) Sync() error {
	l.mu.Lock()
	target := l.nextSeq - 1
	l.mu.Unlock()
	return l.flushThrough(target, true)
}

// flusher is the group-commit loop: it waits for buffered records, hands
// them to the OS in one write, syncs per mode, and advances durableSeq
// for every waiter at once.  In FsyncOff mode — where nobody waits on
// acks — it POLLS on a millisecond cadence instead of being woken per
// append: a whole millisecond of appends coalesces into one write
// syscall, and the append path never touches a channel or wakes a
// goroutine.
func (l *Log) flusher() {
	defer close(l.done)
	poll := l.opts.Fsync == FsyncOff
	for {
		l.mu.Lock()
		for len(l.buf) == 0 && !l.closed {
			l.mu.Unlock()
			if poll {
				time.Sleep(flushPollInterval)
			} else {
				<-l.wake
			}
			l.mu.Lock()
		}
		if l.closed && len(l.buf) == 0 {
			l.mu.Unlock()
			return
		}
		if poll && len(l.buf) < bufferBytes && !l.closed {
			// Let the in-progress burst finish accumulating.
			l.mu.Unlock()
			time.Sleep(flushPollInterval)
			l.mu.Lock()
		}
		target := l.nextSeq - 1
		l.mu.Unlock()
		if err := l.flushThrough(target, !poll); err != nil {
			l.mu.Lock()
			closed := l.closed
			l.mu.Unlock()
			if closed {
				// Close's own Sync already reported the failure; the
				// re-buffered records cannot be saved by spinning here.
				return
			}
			// Transient I/O error: the records went back to the buffer;
			// back off before retrying instead of spinning on the error.
			time.Sleep(10 * time.Millisecond)
		}
	}
}

// flushThrough writes every record appended up to seq target into the
// active segment at its tracked offset (moving to the next prepared
// segment when the round no longer fits) and optionally syncs, then
// advances the durable watermark.  flushMu keeps concurrent callers (the
// flusher goroutine and Sync) writing buffers in append order.
//
// A failed write or sync must not lose records that were never acked as
// durable but WILL be covered by a later durableSeq advance: the offset
// stays where the round started and the records go back to the FRONT of
// the buffer, so the next round rewrites them — byte for byte over
// whatever the failed round left behind — in order.
func (l *Log) flushThrough(target uint64, sync bool) error {
	l.flushMu.Lock()
	defer l.flushMu.Unlock()
	select {
	case <-l.stop:
		return errClosed
	default:
	}
	l.mu.Lock()
	if l.flushedSeq >= target && (!sync || l.durableSeq >= target) {
		l.mu.Unlock()
		return nil
	}
	buf := l.buf
	l.buf = l.spare[:0] // recycle the previous round's slab
	l.spare = nil
	first := l.flushedSeq + 1 // sequence of buf's first record
	flushed := l.flushedSeq
	if len(buf) > 0 {
		flushed = l.nextSeq - 1
	}
	l.mu.Unlock()

	var err error
	if len(buf) > 0 {
		err = l.writeLocked(buf, first)
		l.stats.Flushes.Add(1)
	}
	if err == nil && sync && l.seg != nil {
		err = l.syncLocked()
	}
	if err == nil {
		l.segOff += int64(len(buf))
		l.segTorn = false
	} else if len(buf) > 0 {
		l.segTorn = true
	}

	l.mu.Lock()
	if err == nil {
		if cap(buf) <= 4*bufferBytes {
			l.spare = buf[:0] // hand the slab back for the next round
		}
		if flushed > l.flushedSeq {
			l.flushedSeq = flushed
		}
		if sync && flushed > l.durableSeq {
			l.durableSeq = flushed
		}
	} else if len(buf) > 0 {
		// Restore the records ahead of whatever was appended meanwhile.
		l.buf = append(buf, l.buf...)
		l.log.Warn("wal: flush failed, records re-buffered for retry", "err", err)
	}
	l.cond.Broadcast()
	l.mu.Unlock()
	if err != nil {
		return fmt.Errorf("wal: flush: %w", err)
	}
	return nil
}

// writeLocked puts one flush round into the active segment at the tracked
// offset — never O_APPEND, never past a size the file system has yet to
// learn about, so the write changes no metadata.  A round that does not
// fit what is left of the segment starts the next one, named after the
// round's first record (recovery derives every record's sequence from
// the segment name).  Caller holds flushMu.
func (l *Log) writeLocked(buf []byte, first uint64) error {
	full := l.segOff > 0 && l.segOff+int64(len(buf)) > l.opts.SegmentBytes
	if l.seg == nil || (full && !l.segTorn) {
		// With a segment still open a failed rotation is survivable: the
		// round extends it past its preallocated size instead.
		if err := l.rotateLocked(first); err != nil && l.seg == nil {
			return err
		}
	}
	_, err := l.seg.WriteAt(buf, l.segOff)
	return err
}

// syncLocked makes the active segment's written bytes durable.  Caller
// holds flushMu.
func (l *Log) syncLocked() error {
	// Nemesis hook: an injected failure takes the caller's error path
	// (rewind + re-buffer + retry) before the real sync ever runs; an
	// injected stall just makes durability late, never wrong.
	d, err := l.opts.Faults.fsyncFault()
	if err == nil {
		if d > 0 {
			time.Sleep(d)
		}
		t0 := time.Now()
		err = fdatasync(l.seg)
		l.fsyncLat.ObserveSince(t0)
		l.stats.Fsyncs.Add(1)
	}
	if err != nil {
		l.stats.FsyncErrors.Add(1)
	}
	return err
}

// Replay streams every complete record with sequence ≥ start, in order,
// to fn.  A torn tail ends the stream cleanly.  fn returning an error
// aborts the replay with that error.
func (l *Log) Replay(start uint64, fn func(seq uint64, payload []byte) error) error {
	segs, err := listSegments(l.dir)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	for i, first := range segs {
		// Skip segments that end before start: a segment's records span
		// [first, nextSegFirst); only the last segment has an open end.
		if i+1 < len(segs) && segs[i+1] <= start {
			continue
		}
		f, err := os.Open(filepath.Join(l.dir, segName(first)))
		if err != nil {
			return fmt.Errorf("wal: %w", err)
		}
		seq := first
		_, _, err = readRecords(f, func(payload []byte) error {
			cur := seq
			seq++
			if cur < start {
				return nil
			}
			l.stats.Replayed.Add(1)
			return fn(cur, payload)
		})
		_ = f.Close()
		if err != nil {
			return err
		}
	}
	return nil
}

// TruncateThrough deletes every sealed segment whose records all have
// sequence ≤ seq — the log-compaction step after a snapshot covering
// those records landed.  The tail segment is never deleted.
func (l *Log) TruncateThrough(seq uint64) error {
	segs, err := listSegments(l.dir)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	for i, first := range segs {
		if i+1 >= len(segs) {
			break // tail stays
		}
		if segs[i+1]-1 > seq {
			break // segment holds records beyond seq
		}
		if err := os.Remove(filepath.Join(l.dir, segName(first))); err != nil {
			return fmt.Errorf("wal: %w", err)
		}
		l.stats.Truncated.Add(1)
	}
	return nil
}

// Close flushes and syncs everything buffered, then closes the log,
// leaving exactly the written bytes on disk: the tail segment is cut to
// its records and the segment prepared ahead of it is removed.  Pending
// WaitDurable calls are released.
func (l *Log) Close() error {
	err := l.Sync()
	l.shutdown(true)
	return err
}

// Abandon closes the log WITHOUT flushing its userspace buffer —
// simulating a crash: only bytes already handed to the OS survive, and
// the tail segment keeps its zero-filled suffix exactly as a killed
// process would leave it.  Records buffered but never flushed are lost;
// under FsyncBatch no acknowledged (WaitDurable'd) record can be among
// them.
func (l *Log) Abandon() {
	l.mu.Lock()
	l.buf = nil // drop unflushed records on the floor
	l.mu.Unlock()
	l.shutdown(false)
}

func (l *Log) shutdown(graceful bool) {
	l.mu.Lock()
	if !l.closed {
		l.closed = true
		l.cond.Broadcast()
	}
	l.mu.Unlock()
	l.kick()
	<-l.done
	l.flushMu.Lock()
	select {
	case <-l.stop: // second Close
	default:
		if l.seg != nil {
			if graceful {
				_ = l.seg.Truncate(l.segOff)
			}
			_ = l.seg.Close()
			l.seg = nil
		}
		close(l.stop)
	}
	l.flushMu.Unlock()
	<-l.pipeDone
}
