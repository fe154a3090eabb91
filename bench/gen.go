package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/rand"
	"strconv"
	"strings"

	"dbdht/internal/workload"
)

// Load shape shared by every workload (see README "Load shape").
const (
	valueSize   = 128
	zipfS       = 1.1
	keyPrefix   = "key-"
	preloadID   = 0xffff // writer id stamped on preloaded values
	valueMagic  = 0xdb
	valueHeader = 20 // magic+writer (4) | seq (8) | key index (8)
)

// opKind is one request shape a workload issues.
type opKind int

const (
	opMPut opKind = iota
	opMGet
	opPut
	opGet
)

func (k opKind) write() bool { return k == opMPut || k == opPut }

// keyName renders key index i the way internal/workload's generators do.
func keyName(i int) string { return fmt.Sprintf("%s%08d", keyPrefix, i) }

// keyIndex recovers the index from a generated key; ok is false for a
// key this benchmark did not generate.
func keyIndex(key string) (int, bool) {
	if !strings.HasPrefix(key, keyPrefix) {
		return 0, false
	}
	i, err := strconv.Atoi(key[len(keyPrefix):])
	return i, err == nil && i >= 0
}

// fill is the deterministic byte stream behind a value's tail: SplitMix64
// seeded by (key index, writer, seq), so a reader can recompute it from
// the header alone.
func fill(dst []byte, key int, writer uint32, seq uint64) {
	x := uint64(key)*0x9e3779b97f4a7c15 ^ uint64(writer)<<48 ^ seq
	for i := 0; i < len(dst); i += 8 {
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
		z = (z ^ z>>27) * 0x94d049bb133111eb
		z ^= z >> 31
		var w [8]byte
		binary.LittleEndian.PutUint64(w[:], z)
		copy(dst[i:], w[:])
	}
}

// encodeValue builds the 128-byte self-describing value of one write.
func encodeValue(key int, writer uint32, seq uint64) []byte {
	v := make([]byte, valueSize)
	v[0] = valueMagic
	binary.LittleEndian.PutUint16(v[2:], uint16(writer))
	binary.LittleEndian.PutUint64(v[4:], seq)
	binary.LittleEndian.PutUint64(v[12:], uint64(key))
	fill(v[valueHeader:], key, writer, seq)
	return v
}

// decodeValue checks a value read for key against its own header and
// fill, returning which write produced it.
func decodeValue(key int, v []byte) (writer uint32, seq uint64, err error) {
	if len(v) != valueSize || v[0] != valueMagic {
		return 0, 0, fmt.Errorf("value of %s is not a benchmark value (%d bytes)", keyName(key), len(v))
	}
	writer = uint32(binary.LittleEndian.Uint16(v[2:]))
	seq = binary.LittleEndian.Uint64(v[4:])
	if got := binary.LittleEndian.Uint64(v[12:]); got != uint64(key) {
		return 0, 0, fmt.Errorf("value of %s belongs to key index %d", keyName(key), got)
	}
	var want [valueSize - valueHeader]byte
	fill(want[:], key, writer, seq)
	if string(v[valueHeader:]) != string(want[:]) {
		return 0, 0, fmt.Errorf("value of %s (writer %d seq %d) has a corrupt fill", keyName(key), writer, seq)
	}
	return writer, seq, nil
}

// opStream is one client's seeded request stream: the op kind from the
// workload's write fraction, then a batch of distinct zipfian keys.
// Everything derives from (seed, workload, client), never from timing.
type opStream struct {
	rng       *rand.Rand
	keys      *workload.Zipf
	writeFrac float64
	batched   bool
	batch     int
	seen      map[int]bool
}

func newOpStream(seed int64, w workloadSpec, client, keyspace int) (*opStream, error) {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%s/%d", seed, w.Name, client)
	rng := rand.New(rand.NewSource(int64(h.Sum64())))
	z, err := workload.NewZipf(rng, zipfS, keyspace)
	if err != nil {
		return nil, err
	}
	return &opStream{
		rng: rng, keys: z, writeFrac: w.WriteFrac,
		batched: w.Batch > 1, batch: w.Batch, seen: make(map[int]bool, w.Batch),
	}, nil
}

// next returns the next request: its kind and its distinct key indexes.
// A key drawn twice for one batch is redrawn, so a batch never carries
// two writes to one key (whose order inside a request is unspecified).
func (s *opStream) next(buf []int) (opKind, []int) {
	write := s.rng.Float64() < s.writeFrac
	kind := opGet
	switch {
	case s.batched && write:
		kind = opMPut
	case s.batched:
		kind = opMGet
	case write:
		kind = opPut
	}
	buf = buf[:0]
	clear(s.seen)
	for len(buf) < s.batch {
		i, _ := keyIndex(s.keys.Next())
		if s.seen[i] {
			continue
		}
		s.seen[i] = true
		buf = append(buf, i)
	}
	return kind, buf
}

// fingerprintOps is how many leading requests of each client's stream
// the fingerprint covers.
const fingerprintOps = 2048

// streamFingerprint hashes the head of every client's stream (FNV-64a,
// as dhtsim does): same seed ⇒ same fingerprint, whatever the timing.
func streamFingerprint(seed int64, w workloadSpec, clients, keyspace int) (string, error) {
	h := fnv.New64a()
	var buf []int
	var b [9]byte
	for c := 0; c < clients; c++ {
		s, err := newOpStream(seed, w, c, keyspace)
		if err != nil {
			return "", err
		}
		for n := 0; n < fingerprintOps; n++ {
			var kind opKind
			kind, buf = s.next(buf)
			for _, k := range buf {
				b[0] = byte(kind)
				binary.LittleEndian.PutUint64(b[1:], uint64(k))
				h.Write(b[:])
			}
		}
	}
	return fmt.Sprintf("%016x", h.Sum64()), nil
}
