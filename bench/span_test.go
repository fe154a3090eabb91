package main

import (
	"testing"
	"time"
)

func sp(id, parent uint64, name string, start, end int) span {
	return span{ID: id, Parent: parent, Name: name, Start: time.Duration(start), End: time.Duration(end)}
}

func TestSelfTime(t *testing.T) {
	parent := sp(1, 0, "p", 100, 200)
	for _, tc := range []struct {
		name     string
		children []span
		want     time.Duration
	}{
		{"no children", nil, 100},
		{"one child inside", []span{sp(2, 1, "c", 120, 150)}, 70},
		{"two disjoint children", []span{sp(2, 1, "c", 110, 120), sp(3, 1, "c", 150, 190)}, 50},
		{"overlapping children count once", []span{sp(2, 1, "c", 110, 160), sp(3, 1, "c", 140, 180)}, 30},
		{"nested children count once", []span{sp(2, 1, "c", 110, 190), sp(3, 1, "c", 120, 130)}, 20},
		{"child sticking out is clipped", []span{sp(2, 1, "c", 50, 120), sp(3, 1, "c", 180, 400)}, 60},
		{"child outside covers nothing", []span{sp(2, 1, "c", 300, 400)}, 100},
		{"children covering everything", []span{sp(2, 1, "c", 90, 150), sp(3, 1, "c", 150, 210)}, 0},
		{"unsorted input", []span{sp(3, 1, "c", 150, 190), sp(2, 1, "c", 110, 120)}, 50},
	} {
		if got := selfTime(parent, tc.children); got != tc.want {
			t.Errorf("%s: self time %d, want %d", tc.name, got, tc.want)
		}
	}
}

// TestRequestBudget walks a hand-built R=2 write: two parallel
// sub-requests, the slower one waiting on replicas and then on the WAL.
func TestRequestBudget(t *testing.T) {
	call := sp(1, 0, "client.call", 0, 1000)
	handle := sp(1, 0, "server.handle", 100, 900)
	cluster := []span{
		sp(10, 0, "op.mput", 150, 850),
		sp(11, 10, "batch.rpc", 200, 500), // the fast sub-request
		sp(12, 10, "batch.rpc", 210, 800), // the one that sets the time
		sp(21, 11, "batch.serve", 250, 450),
		sp(22, 12, "batch.serve", 300, 750),
		sp(31, 22, "batch.repl-ack", 350, 600),
		sp(32, 22, "batch.wal-wait", 600, 700),
		sp(41, 31, "repl.fanout", 360, 590), // below a leaf of the budget: ignored
	}
	b, ok := requestBudget(call, handle, cluster)
	if !ok {
		t.Fatal("no budget")
	}
	want := budget{
		Call: 1000, Client: 200, Server: 100,
		Route:   100, // 700 − union[200,800]
		RTT:     140, // 590 − 450
		Serve:   100, // 450 − 250 − 100
		ReplAck: 250, WALWait: 100,
		Unaccounted: 10, // the 10 the fast rpc ran alone before the slow one started
	}
	if b != want {
		t.Errorf("budget %+v\nwant   %+v", b, want)
	}
	if _, ok := requestBudget(call, handle, cluster[1:]); ok {
		t.Error("a tree without an op span produced a budget")
	}
}
