package transport

import (
	"bytes"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// benchPayloadBinary models a hot-path message: a 16-item batch with
// 64-byte values.
type benchPayloadBinary struct {
	Op    uint64
	Items []benchItem
}

type benchItem struct {
	Key   string
	Value []byte
}

const benchTag uint16 = 0x7e58

func (m benchPayloadBinary) WireTag() uint16 { return benchTag }

func (m benchPayloadBinary) AppendWire(buf []byte) []byte {
	buf = AppendUvarint(buf, m.Op)
	buf = AppendUvarint(buf, uint64(len(m.Items)))
	for _, it := range m.Items {
		buf = AppendString(buf, it.Key)
		buf = AppendBytes(buf, it.Value)
	}
	return buf
}

func init() {
	RegisterWire(benchTag, func(r *WireReader) (any, error) {
		var m benchPayloadBinary
		m.Op = r.Uvarint()
		if n := r.ArrayLen(2); n > 0 {
			m.Items = make([]benchItem, n)
			for i := range m.Items {
				m.Items[i].Key = r.String()
				m.Items[i].Value = r.Bytes()
			}
		}
		return m, r.Err()
	})
}

func benchItems() []benchItem {
	items := make([]benchItem, 16)
	val := bytes.Repeat([]byte("x"), 64)
	for i := range items {
		items[i] = benchItem{Key: "bench-key-0123456789", Value: val}
	}
	return items
}

// BenchmarkEncodeFrameBinary measures the hand-rolled codec: one frame
// append into a reused buffer, the writer goroutine's steady state.
func BenchmarkEncodeFrameBinary(b *testing.B) {
	env := Envelope{From: 1, To: 2, Msg: benchPayloadBinary{Op: 7, Items: benchItems()}}
	buf := make([]byte, 0, 4096)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		buf, err = AppendFrame(buf[:0], env)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(len(buf)))
}

// BenchmarkDecodeFrameBinary is the read-side counterpart.
func BenchmarkDecodeFrameBinary(b *testing.B) {
	frame, err := AppendFrame(nil, Envelope{From: 1, To: 2, Msg: benchPayloadBinary{Op: 7, Items: benchItems()}})
	if err != nil {
		b.Fatal(err)
	}
	body := frame[frameHeaderLen:]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeFrame(body); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTransportPipe measures envelopes/sec through one (From, To)
// connection of each medium: a sender pushing batch payloads, a receiver
// draining.  The sender keeps a bounded number of envelopes in flight —
// like the request/response traffic the cluster actually runs — so the
// TCP writer queue's byte budget (there to cut off peers that STOP
// reading) never trips against a healthy-but-slower reader.  Both media
// exercise the full framed path: sender-side slab encode, writer
// goroutine, flush coalescing, pooled frame reads.
func BenchmarkTransportPipe(b *testing.B) {
	for name, mk := range fabrics() {
		b.Run(name, func(b *testing.B) {
			n := mk()
			defer n.Close()
			in, err := n.Register(1)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := n.Register(2); err != nil {
				b.Fatal(err)
			}
			env := Envelope{From: 2, To: 1, Msg: benchPayloadBinary{Op: 1, Items: benchItems()}}
			const window = 1024 // envelopes in flight (~1.4 MB) — a realistic RPC fan-out depth
			var received atomic.Int64
			done := make(chan int)
			go func() {
				got := 0
				for range in {
					got++
					received.Store(int64(got))
					if got == b.N {
						break
					}
				}
				done <- got
			}()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for i-int(received.Load()) >= window {
					runtime.Gosched()
				}
				if err := n.Send(env); err != nil {
					b.Fatal(err)
				}
			}
			select {
			case <-done:
			case <-time.After(60 * time.Second):
				b.Fatal("receiver starved")
			}
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "envelopes/s")
		})
	}
}
