package transport

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"sync"
	"sync/atomic"
)

// Wire framing.  Every envelope on the TCP fabric travels as one
// length-prefixed frame:
//
//	uint32   big-endian length of the frame body
//	byte     wire version (wireVersion; mismatches fail loudly)
//	byte     format: formatBinary or formatGob
//	byte     flags: flagTrace | flagSampled
//	uvarint  trace ID   (only when flagTrace is set)
//	uvarint  span ID    (only when flagTrace is set)
//
// followed, for formatBinary, by
//
//	varint   From (zigzag — NodeID may be negative, the client endpoint)
//	varint   To
//	uvarint  message type tag (see RegisterWire)
//	...      the message's hand-rolled payload
//
// and, for formatGob, by a self-contained encoding/gob stream of the
// Envelope.  Hot-path messages (batch req/resp, replica fan-out, lookup)
// implement WireMessage and ride the binary path; rare control messages
// (join/split/transfer/...) keep gob, whose reflection cost is irrelevant
// at their volume.  The per-frame version byte makes a mixed cluster fail
// with an explicit error instead of silently mis-decoding.
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
// decoder would read the digest count as a partition prefix.

const (
	wireVersion byte = 4

	formatGob    byte = 0
	formatBinary byte = 1

	// Frame flags (v2+).  flagTrace marks a trace context present in the
	// header; flagSampled carries the head-sampling decision.
	flagTrace   byte = 1 << 0
	flagSampled byte = 1 << 1

	// maxFrame bounds a frame body so a corrupt length prefix cannot make
	// the reader allocate unbounded memory.
	maxFrame = 256 << 20

	frameHeaderLen = 4 // length prefix

	// minFrameBody is version + format + flags — the smallest well-formed
	// frame body.
	minFrameBody = 3
)

// WireMessage is implemented by payloads with a hand-rolled binary codec.
// AppendWire appends the payload encoding to buf and returns the extended
// slice; the matching decoder is registered with RegisterWire under the
// same tag.
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

// Codec-path counters (process-wide).  The binary/gob split verifies that
// hot-path messages never fall back to reflection-based encoding.
var (
	binaryEncodes atomic.Int64
	gobEncodes    atomic.Int64
	binaryDecodes atomic.Int64
	gobDecodes    atomic.Int64
)

// CodecCounters reports how many envelopes each codec path has handled
// process-wide: (binary encodes, gob encodes, binary decodes, gob decodes).
func CodecCounters() (binaryEnc, gobEnc, binaryDec, gobDec int64) {
	return binaryEncodes.Load(), gobEncodes.Load(), binaryDecodes.Load(), gobDecodes.Load()
}

// AppendFrame appends env as one complete frame (length prefix included)
// and returns the extended buffer.  On error buf is returned unchanged.
func AppendFrame(buf []byte, env Envelope) ([]byte, error) {
	start := len(buf)
	buf = append(buf, 0, 0, 0, 0) // length back-patched below
	var flags byte
	if env.Trace.TraceID != 0 {
		flags |= flagTrace
	}
	if env.Trace.Sampled {
		flags |= flagSampled
	}
	appendTrace := func(buf []byte) []byte {
		buf = append(buf, flags)
		if flags&flagTrace != 0 {
			buf = binary.AppendUvarint(buf, env.Trace.TraceID)
			buf = binary.AppendUvarint(buf, env.Trace.SpanID)
		}
		return buf
	}
	if wm, ok := env.Msg.(WireMessage); ok {
		buf = append(buf, wireVersion, formatBinary)
		buf = appendTrace(buf)
		buf = binary.AppendVarint(buf, int64(env.From))
		buf = binary.AppendVarint(buf, int64(env.To))
		buf = binary.AppendUvarint(buf, uint64(wm.WireTag()))
		buf = wm.AppendWire(buf)
		binaryEncodes.Add(1)
	} else {
		buf = append(buf, wireVersion, formatGob)
		buf = appendTrace(buf)
		// The header owns the trace context for every format; zero it in
		// the gob stream so it is not encoded twice.
		env.Trace = TraceContext{}
		var gb bytes.Buffer
		if err := gob.NewEncoder(&gb).Encode(&env); err != nil {
			return buf[:start], fmt.Errorf("transport: gob encode %T: %w", env.Msg, err)
		}
		buf = append(buf, gb.Bytes()...)
		gobEncodes.Add(1)
	}
	body := len(buf) - start - frameHeaderLen
	if body > maxFrame {
		return buf[:start], fmt.Errorf("transport: frame of %d bytes exceeds limit", body)
	}
	binary.BigEndian.PutUint32(buf[start:], uint32(body))
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
	format, flags := body[1], body[2]
	if flags&^(flagTrace|flagSampled) != 0 {
		// Unknown flag bits would mean a frame-level change that should
		// have bumped the version — treat as corruption, not extension.
		return Envelope{}, fmt.Errorf("transport: unknown frame flags %#x", flags)
	}
	var tr TraceContext
	rest := body[3:]
	if flags&flagTrace != 0 {
		var n, m int
		tr.TraceID, n = binary.Uvarint(rest)
		if n > 0 {
			tr.SpanID, m = binary.Uvarint(rest[n:])
		}
		if n <= 0 || m <= 0 {
			return Envelope{}, fmt.Errorf("transport: truncated trace context in frame header")
		}
		rest = rest[n+m:]
	}
	tr.Sampled = flags&flagSampled != 0
	switch format {
	case formatBinary:
		r := NewWireReader(rest)
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
		binaryDecodes.Add(1)
		return Envelope{From: NodeID(from), To: NodeID(to), Trace: tr, Msg: msg}, nil
	case formatGob:
		var env Envelope
		if err := gob.NewDecoder(bytes.NewReader(rest)).Decode(&env); err != nil {
			return Envelope{}, fmt.Errorf("transport: gob decode frame: %w", err)
		}
		if env.Msg == nil {
			return Envelope{}, fmt.Errorf("transport: gob frame decoded to an empty envelope")
		}
		env.Trace = tr
		gobDecodes.Add(1)
		return env, nil
	default:
		return Envelope{}, fmt.Errorf("transport: unknown frame format %d", format)
	}
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
// decodes as nil, matching gob's round-trip of empty values.
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
