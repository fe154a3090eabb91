package transport

import (
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"
)

// Wire framing.  Every envelope, over either medium, travels as one
// length-prefixed frame:
//
//	uint32   big-endian length of the frame body
//	byte     wire version (wireVersion; mismatches fail loudly)
//	byte     flags: flagTrace | flagSampled
//	uvarint  trace ID   (only when flagTrace is set)
//	uvarint  span ID    (only when flagTrace is set)
//	varint   From (zigzag — NodeID may be negative, the client endpoint)
//	varint   To
//	uvarint  message type tag (see RegisterWire)
//	...      the message's hand-rolled payload
//
// Every protocol message implements WireMessage; a payload that does not
// is an encode error.  The per-frame version byte makes a mixed cluster
// fail with an explicit error instead of silently mis-decoding.
//
// Version history: v1 had no flags byte; v2 added it (with the optional
// trace context) — a frame-level layout change, hence the bump per
// docs/WIRE.md rule 1.  v3 changed the replWriteReq (tag 5) payload in
// place (each set now carries the primary's write version and replica
// group); the bump keeps a mixed cluster failing loudly — an old decoder
// would otherwise mis-read the trailing fields of a one-set request as
// its ReplyTo.  v4 changed the anti-entropy probe pair (tags 7 and 8) in
// place, for the same reason: one probe now carries every digest a
// primary places at a host and the reply lists the mismatches, and an old
// decoder would read the digest count as a partition prefix.  v5 dropped
// the format byte that used to select between this codec and an
// encoding/gob fallback: there is one codec, so nothing to select.  v6
// appended a route epoch to batchReq (tag 3) and to every route entry
// (tags 4, 77, 78) in place.  v7 took the reply address and the hop count
// out of the request payloads (a reply goes to the frame's From) and
// added a redirect to the lookup, join and leave responses (tags 2, 67,
// 69), all in place.  v8 made batches redirect too: batchReq (tag 3)
// lost its hop count and every batch item result (inside tag 4) gained a
// redirect, and shipVnodeReq (tag 73) lost its unused destination list.
// v9 made reads go to primaries only: batchReq (tag 3) lost its
// replica-read flag, and the route entries inside tags 4, 77 and 78 lost
// their replica hosts.  v10 made one election round promote a copy:
// promoteQueryResp (tag 83) lost its write-created-copy flag and gained the
// exact-copy flag, the owner flag and the deepest known level, tags 84–86 were retired, and
// migCommitReq (tag 15) gained the bucket's write version.  v11 made a
// partition move a replica sync plus an install: tags 11, 13 and 17 (the
// staging bucket's begin, chunk and abort) were retired, migCommitReq
// (tag 15) gained the group and level the begin carried, and the
// anti-entropy digest inside replProbeReq (tag 7) gained the group.

const (
	wireVersion byte = 11

	// Frame flags (v2+).  flagTrace marks a trace context present in the
	// header; flagSampled carries the head-sampling decision.
	flagTrace   byte = 1 << 0
	flagSampled byte = 1 << 1

	// maxFrame bounds a frame body so a corrupt length prefix cannot make
	// the reader allocate unbounded memory.
	maxFrame = 256 << 20

	frameHeaderLen = 4 // length prefix

	// minFrameBody is version + flags, the fixed-width start of every
	// frame body.
	minFrameBody = 2
)

// WireMessage is implemented by every protocol message.  AppendWire
// appends the payload encoding to buf and returns the extended slice; the
// matching decoder is registered with RegisterWire under the same tag.
type WireMessage interface {
	WireTag() uint16
	AppendWire(buf []byte) []byte
}

// WireDecoder decodes one payload from a reader positioned right after the
// type tag.  It must return the concrete message *value* (not a pointer),
// matching what receivers type-switch on.
type WireDecoder func(r *WireReader) (any, error)

var (
	wireMu       sync.RWMutex
	wireDecoders = make(map[uint16]WireDecoder)
)

// RegisterWire installs the decoder for a message type tag.  Registering a
// tag twice panics: tags are a wire-compatibility contract.
func RegisterWire(tag uint16, dec WireDecoder) {
	wireMu.Lock()
	defer wireMu.Unlock()
	if _, dup := wireDecoders[tag]; dup {
		panic(fmt.Sprintf("transport: wire tag %d registered twice", tag))
	}
	wireDecoders[tag] = dec
}

func wireDecoderFor(tag uint16) (WireDecoder, bool) {
	wireMu.RLock()
	dec, ok := wireDecoders[tag]
	wireMu.RUnlock()
	return dec, ok
}

// Process-wide counts of frames encoded and decoded.
var (
	frameEncodes atomic.Int64
	frameDecodes atomic.Int64
)

// CodecCounters reports how many frames this process has encoded and
// decoded.  The second and fourth results counted a gob fallback path
// that no longer exists and are always 0; the four-value signature stays
// only because bench/ compiles against it.
func CodecCounters() (binaryEnc, gobEnc, binaryDec, gobDec int64) {
	return frameEncodes.Load(), 0, frameDecodes.Load(), 0
}

// AppendFrame appends env as one complete frame (length prefix included)
// and returns the extended buffer.  On error — a payload that is not a
// WireMessage, or a frame over maxFrame — buf is returned unchanged.
func AppendFrame(buf []byte, env Envelope) ([]byte, error) {
	wm, ok := env.Msg.(WireMessage)
	if !ok {
		return buf, fmt.Errorf("transport: %T has no wire codec", env.Msg)
	}
	start := len(buf)
	buf = append(buf, 0, 0, 0, 0) // length back-patched below
	var flags byte
	if env.Trace.TraceID != 0 {
		flags |= flagTrace
	}
	if env.Trace.Sampled {
		flags |= flagSampled
	}
	buf = append(buf, wireVersion, flags)
	if flags&flagTrace != 0 {
		buf = binary.AppendUvarint(buf, env.Trace.TraceID)
		buf = binary.AppendUvarint(buf, env.Trace.SpanID)
	}
	buf = binary.AppendVarint(buf, int64(env.From))
	buf = binary.AppendVarint(buf, int64(env.To))
	buf = binary.AppendUvarint(buf, uint64(wm.WireTag()))
	buf = wm.AppendWire(buf)
	body := len(buf) - start - frameHeaderLen
	if body > maxFrame {
		return buf[:start], fmt.Errorf("transport: %T frame of %d bytes exceeds the %d-byte limit", env.Msg, body, maxFrame)
	}
	binary.BigEndian.PutUint32(buf[start:], uint32(body))
	frameEncodes.Add(1)
	return buf, nil
}

// DecodeFrame decodes one frame body (the bytes after the length prefix).
// The returned envelope never aliases body: decoders copy what they keep,
// so the caller may reuse the buffer.  Truncated or corrupt input returns
// an error, never panics.
func DecodeFrame(body []byte) (Envelope, error) {
	if len(body) < minFrameBody {
		return Envelope{}, fmt.Errorf("transport: frame body of %d bytes is shorter than its header", len(body))
	}
	if body[0] != wireVersion {
		return Envelope{}, fmt.Errorf("transport: peer speaks wire version %d, this node speaks %d — mixed cluster?", body[0], wireVersion)
	}
	flags := body[1]
	if flags&^(flagTrace|flagSampled) != 0 {
		// Unknown flag bits would mean a frame-level change that should
		// have bumped the version — treat as corruption, not extension.
		return Envelope{}, fmt.Errorf("transport: unknown frame flags %#x", flags)
	}
	r := NewWireReader(body[minFrameBody:])
	var tr TraceContext
	if flags&flagTrace != 0 {
		tr.TraceID = r.Uvarint()
		tr.SpanID = r.Uvarint()
	}
	tr.Sampled = flags&flagSampled != 0
	from := r.Varint()
	to := r.Varint()
	tag := r.Uvarint()
	if err := r.Err(); err != nil {
		return Envelope{}, fmt.Errorf("transport: frame envelope header: %w", err)
	}
	if tag > uint64(^uint16(0)) {
		return Envelope{}, fmt.Errorf("transport: wire tag %d out of range", tag)
	}
	dec, ok := wireDecoderFor(uint16(tag))
	if !ok {
		return Envelope{}, fmt.Errorf("transport: no decoder for wire tag %d — mixed cluster?", tag)
	}
	msg, err := dec(r)
	if err != nil {
		return Envelope{}, fmt.Errorf("transport: decode wire tag %d: %w", tag, err)
	}
	frameDecodes.Add(1)
	return Envelope{From: NodeID(from), To: NodeID(to), Trace: tr, Msg: msg}, nil
}

// --- encode helpers (append-style, mirrored by WireReader) ---

// AppendUvarint appends an unsigned varint.
func AppendUvarint(buf []byte, v uint64) []byte { return binary.AppendUvarint(buf, v) }

// AppendVarint appends a zigzag-encoded signed varint.
func AppendVarint(buf []byte, v int64) []byte { return binary.AppendVarint(buf, v) }

// AppendBool appends a bool as one byte.
func AppendBool(buf []byte, v bool) []byte {
	if v {
		return append(buf, 1)
	}
	return append(buf, 0)
}

// AppendBytes appends a length-prefixed byte slice.
func AppendBytes(buf, p []byte) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(p)))
	return append(buf, p...)
}

// AppendString appends a length-prefixed string.
func AppendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

// WireReader is a cursor over a frame payload with a sticky error: after
// the first malformed field every subsequent read returns the zero value,
// so decoders check Err once at the end instead of after every field.  All
// reads are bounds-checked — corrupt input errors, it never panics.
type WireReader struct {
	data []byte
	off  int
	err  error
}

// NewWireReader returns a reader over data.  The reader never mutates or
// retains data beyond the decode call.
func NewWireReader(data []byte) *WireReader { return &WireReader{data: data} }

func (r *WireReader) fail(what string) {
	if r.err == nil {
		r.err = fmt.Errorf("truncated or corrupt %s at offset %d", what, r.off)
	}
}

// Err returns the first decode error, if any.
func (r *WireReader) Err() error { return r.err }

// Invalid marks the input malformed from the caller's side — for
// message-level validation (range checks on decoded fields) that the
// reader's own bounds checks cannot see.  Like any reader error it is
// sticky and surfaces from Err.
func (r *WireReader) Invalid(what string) { r.fail(what) }

// Len returns the number of unread bytes.
func (r *WireReader) Len() int { return len(r.data) - r.off }

// Uvarint reads an unsigned varint.
func (r *WireReader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.data[r.off:])
	if n <= 0 {
		r.fail("uvarint")
		return 0
	}
	r.off += n
	return v
}

// Varint reads a zigzag-encoded signed varint.
func (r *WireReader) Varint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.data[r.off:])
	if n <= 0 {
		r.fail("varint")
		return 0
	}
	r.off += n
	return v
}

// Bool reads one bool byte.
func (r *WireReader) Bool() bool {
	if r.err != nil {
		return false
	}
	if r.off >= len(r.data) {
		r.fail("bool")
		return false
	}
	b := r.data[r.off]
	r.off++
	return b != 0
}

// Bytes reads a length-prefixed byte slice.  The result is a copy — the
// frame buffer is pooled and reused after decode.  A zero-length slice
// decodes as nil, so an empty value round-trips like an absent one.
func (r *WireReader) Bytes() []byte {
	n := r.Uvarint()
	if r.err != nil {
		return nil
	}
	if n > uint64(r.Len()) {
		r.fail("byte slice")
		return nil
	}
	if n == 0 {
		return nil
	}
	out := make([]byte, n)
	copy(out, r.data[r.off:r.off+int(n)])
	r.off += int(n)
	return out
}

// String reads a length-prefixed string.
func (r *WireReader) String() string {
	n := r.Uvarint()
	if r.err != nil {
		return ""
	}
	if n > uint64(r.Len()) {
		r.fail("string")
		return ""
	}
	s := string(r.data[r.off : r.off+int(n)])
	r.off += int(n)
	return s
}

// ArrayLen reads a uvarint element count for a slice whose elements occupy
// at least minPerElem bytes each, rejecting counts that cannot fit in the
// remaining input — so a corrupt count cannot force a huge allocation.
func (r *WireReader) ArrayLen(minPerElem int) int {
	n := r.Uvarint()
	if r.err != nil {
		return 0
	}
	if minPerElem < 1 {
		minPerElem = 1
	}
	if n > uint64(r.Len()/minPerElem) {
		r.fail("array length")
		return 0
	}
	return int(n)
}
