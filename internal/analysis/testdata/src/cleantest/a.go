// Package cleantest is the non-flagging golden package: every analyzer in
// the suite must stay silent on it.
package cleantest

import (
	"context"
	"sync"
)

type TraceContext struct{ ID uint64 }

type getReq struct{ K string }

type node struct {
	mu  sync.Mutex
	n   int64 // guarded by mu
	out chan any
}

func (nd *node) bump() {
	nd.mu.Lock()
	defer nd.mu.Unlock()
	nd.n++
}

func (nd *node) send(tr TraceContext, m any) { nd.out <- tr; nd.out <- m }

func (nd *node) handleGet(ctx context.Context, tr TraceContext, r getReq) {
	<-ctx.Done()
	nd.send(tr, getReq{K: r.K})
}
