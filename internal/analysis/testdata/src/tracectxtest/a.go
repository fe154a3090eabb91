package tracectxtest

import "context"

type TraceContext struct{ ID uint64 }

type fooReq struct{ K string }

type fooResp struct{ V string }

type node struct{ out chan any }

// untraced is the package's explicit "no trace" argument.
var untraced TraceContext

func (n *node) send(tr TraceContext, m any) {
	n.out <- tr
	n.out <- m
}

func ask(n *node, tr TraceContext, build func(op uint64) any) any {
	n.out <- tr
	n.out <- build(1)
	return nil
}

func (n *node) forward(tr TraceContext, k string) {
	n.send(tr, fooReq{K: k}) // ok: the trace rides along
}

func (n *node) reply(tr TraceContext, v string) {
	_ = tr.ID
	n.send(untraced, fooResp{V: v}) // ok: responses are deliberately untraced
}

func (n *node) background(k string) {
	n.send(untraced, fooReq{K: k}) // ok: no trace in scope to drop
}

func (n *node) dropped(tr TraceContext, k string) { // want `trace context parameter tr is never used`
	n.send(untraced, fooReq{K: k}) // want `request sent via n.send with an explicit zero trace context`
}

func (n *node) partial(tr TraceContext, k string) {
	n.send(tr, fooReq{K: k})
	n.send(TraceContext{}, fooReq{K: k + "2"}) // want `explicit zero trace context`
}

func (n *node) call(tr TraceContext, k string) any {
	_ = tr.ID
	return ask(n, untraced, func(op uint64) any { return fooReq{K: k} }) // want `request sent via ask with an explicit zero trace context`
}

func (n *node) callTraced(tr TraceContext, k string) any {
	return ask(n, tr, func(op uint64) any { return fooReq{K: k} }) // ok: the one entry point, trace passed on
}

func run(ctx context.Context) { <-ctx.Done() }

func lookup(ctx context.Context) {
	go run(context.Background()) // want `context.Background\(\) inside a function that already has a context parameter`
	run(ctx)
}

func todoer(ctx context.Context) {
	run(context.TODO()) // want `context.TODO\(\) inside a function that already has a context parameter`
	run(ctx)
}

func ignores(ctx context.Context, k string) string { // want `context.Context parameter ctx is never used`
	return k
}

func blankOK(_ context.Context, k string) string { return k }

func late(k string, ctx context.Context) { // want `context.Context parameter ctx should be the function's first parameter`
	_ = k
	run(ctx)
}

func traceFirst(tr TraceContext, ctx context.Context) { // ok: trace params may lead
	_ = tr.ID
	run(ctx)
}
