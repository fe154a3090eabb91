package transport

import (
	"encoding/binary"
	"fmt"
	"strings"
	"testing"
)

// fuzzMsg is a binary-path payload covering every field shape the helpers
// support, registered under a test-only tag.
type fuzzMsg struct {
	U   uint64
	I   int64
	B   bool
	Bs  []byte
	S   string
	Seq []uint64
}

const fuzzTag uint16 = 0x7e57

func (m fuzzMsg) WireTag() uint16 { return fuzzTag }

func (m fuzzMsg) AppendWire(buf []byte) []byte {
	buf = AppendUvarint(buf, m.U)
	buf = AppendVarint(buf, m.I)
	buf = AppendBool(buf, m.B)
	buf = AppendBytes(buf, m.Bs)
	buf = AppendString(buf, m.S)
	buf = AppendUvarint(buf, uint64(len(m.Seq)))
	for _, v := range m.Seq {
		buf = AppendUvarint(buf, v)
	}
	return buf
}

func init() {
	RegisterWire(fuzzTag, func(r *WireReader) (any, error) {
		var m fuzzMsg
		m.U = r.Uvarint()
		m.I = r.Varint()
		m.B = r.Bool()
		m.Bs = r.Bytes()
		m.S = r.String()
		if n := r.ArrayLen(1); n > 0 {
			m.Seq = make([]uint64, n)
			for i := range m.Seq {
				m.Seq[i] = r.Uvarint()
			}
		}
		return m, r.Err()
	})
}

func encodeFrame(t testing.TB, env Envelope) []byte {
	t.Helper()
	frame, err := AppendFrame(nil, env)
	if err != nil {
		t.Fatalf("AppendFrame: %v", err)
	}
	if got := binary.BigEndian.Uint32(frame); int(got) != len(frame)-frameHeaderLen {
		t.Fatalf("length prefix %d, body is %d bytes", got, len(frame)-frameHeaderLen)
	}
	return frame
}

func TestFrameRoundTripBinary(t *testing.T) {
	want := fuzzMsg{U: 9000, I: -42, B: true, Bs: []byte{1, 2, 3}, S: "hello", Seq: []uint64{7, 8}}
	frame := encodeFrame(t, Envelope{From: -1, To: 12, Msg: want})
	env, err := DecodeFrame(frame[frameHeaderLen:])
	if err != nil {
		t.Fatal(err)
	}
	if env.From != -1 || env.To != 12 {
		t.Fatalf("envelope header mangled: %+v", env)
	}
	got, ok := env.Msg.(fuzzMsg)
	if !ok {
		t.Fatalf("decoded %T, want fuzzMsg", env.Msg)
	}
	if got.U != want.U || got.I != want.I || got.B != want.B ||
		string(got.Bs) != string(want.Bs) || got.S != want.S || len(got.Seq) != 2 {
		t.Fatalf("round trip: got %+v, want %+v", got, want)
	}
}

// TestAppendFrameRejectsPayloadWithoutCodec: there is one codec, so a
// payload that does not implement WireMessage is an encode error that
// leaves the caller's buffer as it was.
func TestAppendFrameRejectsPayloadWithoutCodec(t *testing.T) {
	buf := []byte("queued")
	out, err := AppendFrame(buf, Envelope{From: 3, To: 4, Msg: map[string][]byte{"k": []byte("v")}})
	if err == nil {
		t.Fatal("payload without a wire codec encoded without error")
	}
	if !strings.Contains(err.Error(), "map[string][]uint8") {
		t.Fatalf("encode error %q does not name the payload type", err)
	}
	if string(out) != "queued" {
		t.Fatalf("buffer changed on encode error: %q", out)
	}
}

// TestRegisterWireDuplicatePanics: a second decoder for a registered tag
// panics, so two messages can never share a wire tag at run time.
func TestRegisterWireDuplicatePanics(t *testing.T) {
	const tag uint16 = 0x7e56
	t.Cleanup(func() {
		wireMu.Lock()
		delete(wireDecoders, tag)
		wireMu.Unlock()
	})
	dec := func(r *WireReader) (any, error) { return nil, r.Err() }
	RegisterWire(tag, dec)
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "registered twice") {
			t.Fatalf("second RegisterWire(%#x): recovered %v, want a \"registered twice\" panic", tag, r)
		}
	}()
	RegisterWire(tag, dec)
}

func TestDecodeFrameVersionMismatch(t *testing.T) {
	frame := encodeFrame(t, Envelope{From: 1, To: 2, Msg: fuzzMsg{U: 1}})
	body := append([]byte(nil), frame[frameHeaderLen:]...)
	body[0] = wireVersion + 1
	if _, err := DecodeFrame(body); err == nil {
		t.Fatal("future wire version must fail loudly, not decode")
	}
}

func TestDecodeFrameUnknownTag(t *testing.T) {
	var body []byte
	body = append(body, wireVersion, 0) // no flags
	body = binary.AppendVarint(body, 1)
	body = binary.AppendVarint(body, 2)
	body = binary.AppendUvarint(body, 0xfffe) // never registered
	if _, err := DecodeFrame(body); err == nil {
		t.Fatal("unknown wire tag must error")
	}
}

func TestFrameRoundTripTraceContext(t *testing.T) {
	tr := TraceContext{TraceID: 0xfeedface12345678, SpanID: 42, Sampled: true}
	frame := encodeFrame(t, Envelope{From: -1, To: 3, Trace: tr, Msg: fuzzMsg{U: 7}})
	env, err := DecodeFrame(frame[frameHeaderLen:])
	if err != nil {
		t.Fatal(err)
	}
	if env.Trace != tr {
		t.Fatalf("trace round trip: got %+v, want %+v", env.Trace, tr)
	}
	if !env.Trace.Active() {
		t.Fatal("sampled trace context must be Active after decode")
	}
	// An untraced envelope pays exactly one flags byte and decodes to the
	// zero context.
	traced := encodeFrame(t, Envelope{From: -1, To: 3, Trace: tr, Msg: fuzzMsg{U: 7}})
	plain := encodeFrame(t, Envelope{From: -1, To: 3, Msg: fuzzMsg{U: 7}})
	if len(traced) <= len(plain) {
		t.Fatalf("traced frame (%d bytes) not larger than plain (%d)", len(traced), len(plain))
	}
	if env, err = DecodeFrame(plain[frameHeaderLen:]); err != nil {
		t.Fatal(err)
	}
	if env.Trace != (TraceContext{}) {
		t.Fatalf("plain frame decoded a trace context: %+v", env.Trace)
	}
}

func TestDecodeFrameOldVersionRejected(t *testing.T) {
	// Frames from a pre-upgrade peer: the version check must reject them
	// with the mixed-cluster error before misreading their header — a v1
	// frame has no flags byte, a v4 frame a format byte where v5 has the
	// flags, and a v5 frame the same header as v6 over shorter payloads.
	envelope := func(body []byte) []byte {
		body = binary.AppendVarint(body, -1)
		body = binary.AppendVarint(body, 2)
		body = binary.AppendUvarint(body, uint64(fuzzTag))
		return fuzzMsg{U: 1}.AppendWire(body)
	}
	for _, old := range []struct {
		want string
		body []byte
	}{
		{"wire version 1", envelope([]byte{1, 1})},    // v1: version, format
		{"wire version 4", envelope([]byte{4, 1, 0})}, // v4: version, format, flags
		{"wire version 5", envelope([]byte{5, 0})},    // v5: version, flags
	} {
		_, err := DecodeFrame(old.body)
		if err == nil {
			t.Fatalf("frame of %s must be rejected, not decoded", old.want)
		}
		if !strings.Contains(err.Error(), old.want) || !strings.Contains(err.Error(), "mixed cluster?") {
			t.Fatalf("rejection error %q does not name the peer's %s and the mixed cluster", err, old.want)
		}
	}
}

func TestDecodeFrameBadTraceHeader(t *testing.T) {
	// Truncated trace context: flags promise trace IDs the body lacks.
	if _, err := DecodeFrame([]byte{wireVersion, flagTrace | flagSampled, 0x80}); err == nil {
		t.Fatal("truncated trace context must error")
	}
	// Unknown flag bits are corruption, not extension (a frame-level
	// change bumps the version instead).
	if _, err := DecodeFrame([]byte{wireVersion, 0x80}); err == nil {
		t.Fatal("unknown frame flags must error")
	}
}

func TestDecodeFrameTruncated(t *testing.T) {
	frame := encodeFrame(t, Envelope{From: -1, To: 9, Msg: fuzzMsg{
		U: 1 << 40, I: -1 << 40, B: true, Bs: make([]byte, 100), S: "truncate-me", Seq: []uint64{1, 2, 3},
	}})
	body := frame[frameHeaderLen:]
	for cut := 0; cut < len(body); cut++ {
		if _, err := DecodeFrame(body[:cut]); err == nil {
			t.Fatalf("decode of %d/%d bytes succeeded, want error", cut, len(body))
		}
	}
}

func TestWireReaderHugeCountRejected(t *testing.T) {
	// A corrupt element count larger than the remaining input must error
	// out instead of driving a huge allocation.
	var body []byte
	body = binary.AppendUvarint(body, 1<<40)
	r := NewWireReader(body)
	if n := r.ArrayLen(1); n != 0 || r.Err() == nil {
		t.Fatalf("ArrayLen = %d, err = %v; want 0 and an error", n, r.Err())
	}
	r = NewWireReader(body)
	if b := r.Bytes(); b != nil || r.Err() == nil {
		t.Fatalf("Bytes = %v, err = %v; want nil and an error", b, r.Err())
	}
}

// FuzzDecodeFrame asserts that arbitrarily corrupt frame bodies error
// cleanly — DecodeFrame must never panic or over-allocate, whatever the
// bytes.  Run with: go test -fuzz FuzzDecodeFrame ./internal/cluster/transport
func FuzzDecodeFrame(f *testing.F) {
	valid := encodeFrame(f, Envelope{From: -1, To: 7, Msg: fuzzMsg{
		U: 123, I: -9, B: true, Bs: []byte("payload"), S: "seed", Seq: []uint64{1, 2},
	}})
	f.Add(valid[frameHeaderLen:])
	f.Add([]byte{})
	f.Add([]byte{wireVersion})
	f.Add([]byte{wireVersion, 0})
	f.Add([]byte{wireVersion, 99})
	f.Fuzz(func(t *testing.T, body []byte) {
		env, err := DecodeFrame(body) // must not panic
		if err == nil && env.Msg == nil {
			t.Fatal("nil-error decode returned a nil message")
		}
	})
}
