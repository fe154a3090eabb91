package wal

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Segment lifecycle: prepared → active → sealed.
//
// A segment is born in the background as <n>.prep: created at its full
// SegmentBytes, zero-filled and synced, so that by the time the flusher
// needs it the file system has nothing left to learn about the file —
// appends into it change no metadata and a data-only sync (fdatasync)
// makes them durable without a journal commit.  The flusher activates it
// by renaming it to the sequence of its first record (plus one directory
// sync, the only metadata work on the ack path, once per segment).  When
// a flush round no longer fits, the segment is sealed: handed back to the
// pipeline, which cuts it to its written length and closes it, off the
// ack path.  One segment is always kept prepared ahead of the tail, so
// neither boot nor rotation waits for the zero-fill while there is memory
// to buffer appends into.
//
// The zero fill is what ends the log: a record length of 0 is the
// explicit end-of-log marker, so the unwritten remainder of an active
// (or crashed) segment reads as "no more records" rather than as
// garbage.
//
// Under FsyncOff nobody waits for a sync, so filling would only double
// the bytes written: segments are then prepared empty and simply grow.

// zeros is the shared fill source: one small buffer for every log in the
// process.
var zeros [64 << 10]byte

// prepareRetry paces the pipeline after a failed prepare (disk full,
// directory gone): the flusher keeps the records buffered meanwhile.
const prepareRetry = 100 * time.Millisecond

// preparedSeg is a ready-made segment waiting for its name, or the reason
// none could be made.
type preparedSeg struct {
	f    *os.File
	path string
	err  error
}

// retiredSeg is a segment the flusher moved past: size is where its
// records end.
type retiredSeg struct {
	f    *os.File
	size int64
}

// segName formats the canonical segment file name for a first sequence.
func segName(firstSeq uint64) string {
	return fmt.Sprintf("%020d.seg", firstSeq)
}

// parseSegName extracts a segment's first sequence from its file name.
func parseSegName(name string) (uint64, bool) {
	if !strings.HasSuffix(name, ".seg") {
		return 0, false
	}
	n, err := strconv.ParseUint(strings.TrimSuffix(name, ".seg"), 10, 64)
	if err != nil {
		return 0, false
	}
	return n, true
}

// listSegments returns the segment first-sequences present in dir,
// ascending.
func listSegments(dir string) ([]uint64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var segs []uint64
	for _, e := range ents {
		if seq, ok := parseSegName(e.Name()); ok {
			segs = append(segs, seq)
		}
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i] < segs[j] })
	return segs, nil
}

// removePrepared deletes the never-activated segments a crashed process
// left behind: they hold no records.
func removePrepared(dir string) error {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	for _, e := range ents {
		if strings.HasSuffix(e.Name(), ".prep") {
			if err := os.Remove(filepath.Join(dir, e.Name())); err != nil {
				return fmt.Errorf("wal: %w", err)
			}
		}
	}
	return nil
}

// segmentPipeline is the background half of the segment lifecycle: it
// keeps exactly one segment prepared ahead of the flusher and seals the
// ones the flusher retires.  It exits when the log stops.
func (l *Log) segmentPipeline() {
	defer close(l.pipeDone)
	defer l.sealRetired() // whatever was retired last is sealed before the log reports itself stopped
	for n := 0; ; n++ {
		l.sealRetired()
		p := l.prepare(n)
		for handed := false; !handed; {
			select {
			case r := <-l.retired:
				l.seal(r)
			case l.prepared <- p:
				handed = true
			case <-l.stop:
				if p.err == nil {
					_ = p.f.Close()
					_ = os.Remove(p.path)
				}
				return
			}
		}
		if p.err != nil {
			select {
			case <-time.After(prepareRetry):
			case <-l.stop:
				return
			}
		}
	}
}

// prepare creates the n-th segment of this process at full size.
func (l *Log) prepare(n int) preparedSeg {
	path := filepath.Join(l.dir, strconv.Itoa(n)+".prep")
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err == nil && l.opts.Fsync != FsyncOff {
		err = l.zeroFill(f)
	}
	if err != nil {
		if f != nil {
			_ = f.Close()
			_ = os.Remove(path)
		}
		if !errors.Is(err, errClosed) {
			l.log.Warn("wal: preparing the next segment failed", "err", err)
		}
		return preparedSeg{err: fmt.Errorf("wal: preparing segment: %w", err)}
	}
	l.stats.Prepared.Add(1)
	return preparedSeg{f: f, path: path}
}

// zeroFill writes SegmentBytes of zeros and syncs them — data AND size, so
// later appends inside the file are data-only.  Preallocating without
// writing is not enough: converting an unwritten extent on first write is
// itself a metadata change.
func (l *Log) zeroFill(f *os.File) error {
	for left := l.opts.SegmentBytes; left > 0; {
		select {
		case <-l.stop:
			return errClosed
		default:
		}
		n := min(left, int64(len(zeros)))
		if _, err := f.Write(zeros[:n]); err != nil {
			return err
		}
		left -= n
	}
	return f.Sync()
}

// rotateLocked makes the next prepared segment the active one, named for
// the first record it will hold, and retires the current one.  The
// directory sync is load-bearing: records synced into a segment whose
// name never reached disk would vanish with it.  Caller holds flushMu.
func (l *Log) rotateLocked(first uint64) error {
	p := <-l.prepared
	if p.err != nil {
		return p.err
	}
	path := filepath.Join(l.dir, segName(first))
	err := os.Rename(p.path, path)
	if err == nil {
		err = syncDir(l.dir)
	}
	if err != nil {
		_ = p.f.Close()
		_ = os.Remove(p.path)
		_ = os.Remove(path)
		return fmt.Errorf("wal: activating segment: %w", err)
	}
	if l.seg != nil {
		l.stats.Rotations.Add(1)
		l.retired <- retiredSeg{f: l.seg, size: l.segOff}
	}
	l.seg, l.segOff, l.segTorn = p.f, 0, false
	return nil
}

// sealRetired seals whatever the flusher retired since the last look.
func (l *Log) sealRetired() {
	for {
		select {
		case r := <-l.retired:
			l.seal(r)
		default:
			return
		}
	}
}

// seal cuts a retired segment to its records, so replay, truncation and
// disk use see only written bytes.  A crash before the cut is harmless:
// recovery stops at the zero fill and cuts it then.
func (l *Log) seal(r retiredSeg) {
	if err := r.f.Truncate(r.size); err != nil {
		l.log.Warn("wal: sealing segment failed", "segment", r.f.Name(), "err", err)
	}
	_ = r.f.Close()
}

// readRecords streams one segment's complete records to fn (nil just
// counts), returning how many there are and the offset right after the
// last one.  The first header that is zero (the end-of-log marker),
// oversized, cut short or failing its CRC ends the stream cleanly: it is
// not an error — recovery truncates there.
func readRecords(f *os.File, fn func(payload []byte) error) (records int, validLen int64, err error) {
	r := bufio.NewReaderSize(f, bufferBytes)
	var hdr [recHeaderLen]byte
	var payload []byte
	for {
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			return records, validLen, nil
		}
		n := binary.BigEndian.Uint32(hdr[0:4])
		crc := binary.BigEndian.Uint32(hdr[4:8])
		if n == 0 || n > maxRecord {
			return records, validLen, nil
		}
		if uint32(cap(payload)) < n {
			payload = make([]byte, n)
		}
		payload = payload[:n]
		if _, err := io.ReadFull(r, payload); err != nil {
			return records, validLen, nil
		}
		if crc32.Checksum(payload, crcTable) != crc {
			return records, validLen, nil
		}
		if fn != nil {
			if err := fn(payload); err != nil {
				return records, validLen, err
			}
		}
		records++
		validLen += int64(recHeaderLen) + int64(n)
	}
}

// recoverSegment counts a segment's complete records at Open and cuts the
// file back to them.  What follows the last record is either the zero
// fill of a segment that was never sealed — expected after any crash, not
// counted — or garbage from a torn append, counted in TornBytes up to its
// last non-zero byte.  A segment left without a single record is removed.
func (l *Log) recoverSegment(path string) (records int, err error) {
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return 0, fmt.Errorf("wal: %w", err)
	}
	defer f.Close()
	records, validLen, _ := readRecords(f, nil)
	fi, err := f.Stat()
	if err != nil {
		return 0, fmt.Errorf("wal: %w", err)
	}
	if fi.Size() > validLen {
		torn, err := garbageLen(f, validLen, fi.Size())
		if err != nil {
			return 0, fmt.Errorf("wal: %w", err)
		}
		if torn > 0 {
			l.stats.TornBytes.Add(torn)
			l.log.Info("wal: truncated torn tail", "segment", filepath.Base(path), "bytes", torn)
		}
		if err := f.Truncate(validLen); err != nil {
			return 0, fmt.Errorf("wal: truncating segment tail: %w", err)
		}
	}
	if validLen == 0 {
		if err := os.Remove(path); err != nil {
			return 0, fmt.Errorf("wal: %w", err)
		}
	}
	return records, nil
}

// garbageLen measures f[from:size) up to its last non-zero byte: 0 for a
// pure zero fill.
func garbageLen(f *os.File, from, size int64) (int64, error) {
	buf := make([]byte, len(zeros))
	var end int64 // offset right after the last non-zero byte seen
	for off := from; off < size; {
		n, err := f.ReadAt(buf[:min(int64(len(buf)), size-off)], off)
		if n == 0 && err != nil {
			return 0, err
		}
		if chunk := buf[:n]; !bytes.Equal(chunk, zeros[:n]) {
			end = off + int64(len(bytes.TrimRight(chunk, "\x00")))
		}
		off += int64(n)
	}
	if end == 0 {
		return 0, nil
	}
	return end - from, nil
}
