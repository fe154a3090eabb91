package wal

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
)

// Snapshot files.  A snapshot is a stream of opaque records (the cluster
// layer writes ordinary journal records) in the same framing as a log
// segment:
//
//	uint32  big-endian payload length
//	uint32  big-endian CRC-32C of the payload
//	...     payload
//
// Writes are atomic: the file is written and fsynced under a temporary
// name, then renamed into place and the directory fsynced, so a crash
// mid-snapshot leaves either the previous file or the new one — never a
// half-written hybrid.  Unlike a segment, a snapshot file ends exactly
// after its last record, so a reader treats any byte that does not frame
// a record as damage, not as the end.

// WriteSnapshot atomically replaces the file at path with the records
// that fill hands to add, in order.  An error from fill or add abandons
// the write (the file at path is untouched) and is returned wrapped.
func (s *Stats) WriteSnapshot(path string, fill func(add func(payload []byte) error) error) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("wal: snapshot: %w", err)
	}
	bw := bufio.NewWriterSize(f, bufferBytes)
	var hdr [recHeaderLen]byte
	err = fill(func(payload []byte) error {
		if len(payload) == 0 || len(payload) > maxRecord {
			return fmt.Errorf("record of %d bytes cannot be framed", len(payload))
		}
		binary.BigEndian.PutUint32(hdr[0:4], uint32(len(payload)))
		binary.BigEndian.PutUint32(hdr[4:8], crc32.Checksum(payload, crcTable))
		if _, err := bw.Write(hdr[:]); err != nil {
			return err
		}
		_, err := bw.Write(payload)
		return err
	})
	if err == nil {
		err = bw.Flush()
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		_ = os.Remove(tmp)
		return fmt.Errorf("wal: snapshot: %w", err)
	}
	if err := syncDir(filepath.Dir(path)); err != nil {
		return err
	}
	if s != nil {
		s.SnapWrites.Add(1)
	}
	return nil
}

// ReadSnapshot streams the records of a snapshot file written by
// WriteSnapshot, in order, to fn; fn must not keep payload past its
// return.  Bytes after the last complete record (a torn tail, a failed
// CRC) are an error, as is fn's; a missing file is an error that matches
// os.ErrNotExist.
func ReadSnapshot(path string, fn func(payload []byte) error) error {
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("wal: snapshot: %w", err)
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return fmt.Errorf("wal: snapshot: %w", err)
	}
	_, valid, err := readRecords(f, fn)
	if err != nil {
		return err
	}
	if valid != fi.Size() {
		return fmt.Errorf("wal: snapshot %s: damaged after byte %d of %d", path, valid, fi.Size())
	}
	return nil
}

// syncDir fsyncs a directory so renames within it survive a crash.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("wal: snapshot: %w", err)
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("wal: snapshot: %w", err)
	}
	return nil
}
