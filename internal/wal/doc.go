// Package wal implements the crash-durability primitives under the
// cluster's snode storage: a segmented, CRC-framed write-ahead log with
// group-commit fsync, and atomic snapshot files framed the same way.
//
// The log is a sequence of records, each assigned a monotonically
// increasing sequence number starting at 1.  Records live in segment
// files named by the sequence of their first record
// (wal/00000000000000000001.seg), so replay order and truncation points
// fall out of a directory listing.  Every record is framed as
//
//	uint32  big-endian payload length (0 marks the end of the log)
//	uint32  big-endian CRC-32C (Castagnoli) of the payload
//	...     payload
//
// mirroring the transport frame codec's length-prefixed discipline
// (internal/cluster/transport).  The payload itself is opaque here — the
// cluster layer encodes typed records with the same varint helpers it
// uses on the wire (see internal/cluster/walrec.go and docs/WIRE.md).
//
// Durability is a two-step contract shaped for a data path that appends
// under fine-grained locks: Append buffers the record and returns its
// sequence immediately (safe to call under a bucket lock — it only takes
// the log's own mutex), and WaitDurable(seq) blocks, outside any lock,
// until the record's durability class is satisfied:
//
//   - FsyncOff: nothing is awaited; a background flusher moves bytes to
//     the OS promptly, but an acknowledged write may die with the process.
//   - FsyncBatch: WaitDurable blocks until a sync covering seq
//     completed.  The flusher syncs every round it writes, and
//     concurrent committers share that one sync (group commit), so the
//     sync rate scales with flush rounds, not with writers.
//
// Appends never change file-system metadata.  Segments are created ahead
// of use at their full size, zero-filled and synced by a background step
// (segment.go), the flusher writes at a tracked offset inside them and
// syncs with fdatasync, and a retired segment is cut to its written
// length off the acknowledgement path — so a durability wait costs the
// device's data sync, not the file system's journal commit.
//
// Recovery tolerates torn writes: Open scans every segment and cuts it
// after its last complete record — at the zero fill of a segment that was
// never sealed, or at the first record whose length or CRC does not check
// out — so a crash mid-append never poisons the log.  Everything up to
// the last complete record replays, and new appends continue in a fresh
// segment numbered from there.
package wal
