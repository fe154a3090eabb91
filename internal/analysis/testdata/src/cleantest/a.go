// Package cleantest is the non-flagging golden package: every analyzer in
// the suite must stay silent on it.
package cleantest

import (
	"context"
	"sync"
	"sync/atomic"
)

type TraceContext struct{ ID uint64 }

const (
	wireTagGet uint16 = 1
	walTagSet  uint16 = 32
)

func RegisterWire(tag uint16, fn func([]byte) any) {}

type getReq struct{ K string }

func (getReq) WireTag() uint16 { return wireTagGet }

var wireMessages = []struct {
	tag uint16
	dec func([]byte) any
}{
	{wireTagGet, func(b []byte) any { return getReq{} }},
}

func init() {
	for _, row := range wireMessages {
		RegisterWire(row.tag, row.dec)
	}
}

type setRec struct{ K string }

func (*setRec) walTag() uint16 { return walTagSet }

var walRecords = []struct {
	tag uint16
	new func() any
}{
	{walTagSet, func() any { return new(setRec) }},
}

type node struct {
	mu  sync.Mutex
	n   int64 // guarded by mu
	raw int64
	out chan any
}

func (nd *node) bump() {
	nd.mu.Lock()
	defer nd.mu.Unlock()
	nd.n++
}

func (nd *node) count()       { atomic.AddInt64(&nd.raw, 1) }
func (nd *node) total() int64 { return atomic.LoadInt64(&nd.raw) }

func (nd *node) send(tr TraceContext, m any) { nd.out <- tr; nd.out <- m }

func (nd *node) handleGet(ctx context.Context, tr TraceContext, r getReq) {
	<-ctx.Done()
	nd.send(tr, getReq{K: r.K})
}
