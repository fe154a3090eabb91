package cluster

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"dbdht/internal/cluster/transport"
	"dbdht/internal/hashspace"
)

// fakePeer joins the fabric under id and hands every envelope it receives
// to handle (on its own goroutine) until the fabric closes.
func fakePeer(t *testing.T, net transport.Network, id transport.NodeID, handle func(transport.Envelope)) {
	t.Helper()
	in, err := net.Register(id)
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		for env := range in {
			handle(env)
		}
	}()
}

func pingTo(e *endpoint, to transport.NodeID, timeout time.Duration) (pingResp, error) {
	return replyAs[pingResp](e.call(to, untraced, timeout, nil, func(op uint64) transport.WireMessage {
		return pingReq{Op: op}
	}))
}

// returnsWithin fails the test unless fn returns inside d.
func returnsWithin(t *testing.T, d time.Duration, what string, fn func() error) error {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- fn() }()
	select {
	case err := <-done:
		return err
	case <-time.After(d):
		t.Fatalf("%s still waiting after %v", what, d)
		return nil
	}
}

// waitParked polls until the endpoint has n calls registered.
func waitParked(t *testing.T, e *endpoint, n int) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		e.pendMu.Lock()
		got := len(e.pending)
		e.pendMu.Unlock()
		if got == n {
			return
		}
	}
	t.Fatalf("never saw %d parked calls", n)
}

// TestCallRejectsReplyOfWrongType: a reply of another type under the
// call's op is an error at the caller.  At the parent the caller's
// unchecked cast panicked the process.
func TestCallRejectsReplyOfWrongType(t *testing.T) {
	net := transport.NewMem()
	c, err := New(Config{Pmin: 4, Vmin: 2, RPCTimeout: 5 * time.Second}, net)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const fake = transport.NodeID(99)
	fakePeer(t, net, fake, func(env transport.Envelope) {
		m := env.Msg.(pingReq)
		_ = net.Send(transport.Envelope{From: fake, To: env.From, Msg: lookupResp{Op: m.Op}})
	})
	if _, err := pingTo(&c.endpoint, fake, 0); err == nil || !strings.Contains(err.Error(), "unexpected reply") {
		t.Fatalf("ping answered by a lookupResp = %v, want an unexpected-reply error", err)
	}
}

// TestLateReplyIsDropped: a reply arriving after its call timed out is
// discarded, and the next call gets its own reply.
func TestLateReplyIsDropped(t *testing.T) {
	net := transport.NewMem()
	c, err := New(Config{Pmin: 4, Vmin: 2, RPCTimeout: 5 * time.Second}, net)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const fake = transport.NodeID(99)
	release := make(chan struct{})
	first := true
	fakePeer(t, net, fake, func(env transport.Envelope) {
		m := env.Msg.(pingReq)
		if first {
			first = false
			<-release // answer only after the caller gave up
		}
		_ = net.Send(transport.Envelope{From: fake, To: env.From, Msg: pingResp{Op: m.Op}})
	})
	if _, err := pingTo(&c.endpoint, fake, 20*time.Millisecond); err == nil || !strings.Contains(err.Error(), "timed out") {
		t.Fatalf("first ping = %v, want a timeout", err)
	}
	close(release)
	resp, err := pingTo(&c.endpoint, fake, 0)
	if err != nil {
		t.Fatalf("ping after a late reply: %v", err)
	}
	if want := c.opSeq.Load(); resp.Op != want {
		t.Fatalf("second ping completed by op %d, want its own op %d", resp.Op, want)
	}
	waitParked(t, &c.endpoint, 0)
}

// TestStopUnblocksWaitingCalls: a call parked on a silent peer returns
// with the stopping error as soon as its owner stops — at an snode and at
// the handle, which had no stop case at the parent and waited out the
// whole RPC timeout.
func TestStopUnblocksWaitingCalls(t *testing.T) {
	net := transport.NewMem()
	c, err := New(Config{Pmin: 4, Vmin: 2, RPCTimeout: 30 * time.Second}, net)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.AddSnode(); err != nil {
		t.Fatal(err)
	}
	s := c.liveSnodes()[0]
	const silent = transport.NodeID(99)
	fakePeer(t, net, silent, func(transport.Envelope) {})

	for _, tc := range []struct {
		name string
		e    *endpoint
		stop func()
	}{
		{"snode", &s.endpoint, s.stop},
		{"handle", &c.endpoint, c.Close},
	} {
		errc := make(chan error, 1)
		go func() {
			_, err := pingTo(tc.e, silent, 0)
			errc <- err
		}()
		waitParked(t, tc.e, 1)
		go tc.stop()
		err := returnsWithin(t, 5*time.Second, tc.name+" call", func() error { return <-errc })
		if err == nil || !strings.Contains(err.Error(), "stopping") {
			t.Fatalf("%s call after stop = %v, want the stopping error", tc.name, err)
		}
	}
}

// TestCallsToDepartedPeerFailFast: with RPCTimeout at 10 s, calls parked on
// an snode — one from a peer snode, one from the handle — return within a
// second of that snode being killed, while a call parked on a different
// snode at the same time still gets its reply.  At the parent all three
// waited out the deadline.
func TestCallsToDepartedPeerFailFast(t *testing.T) {
	for _, fabric := range []string{"mem", "tcp"} {
		t.Run(fabric, func(t *testing.T) {
			var net transport.Network = transport.NewMem()
			if fabric == "tcp" {
				net = transport.NewTCP("127.0.0.1")
			}
			c, err := New(Config{Pmin: 8, Vmin: 4, Seed: 7, RPCTimeout: 10 * time.Second, FreezeTimeout: 8 * time.Second}, net)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			for i := 0; i < 3; i++ {
				id, err := c.AddSnode()
				if err != nil {
					t.Fatal(err)
				}
				if _, _, err := c.CreateVnode(id); err != nil {
					t.Fatal(err)
				}
			}
			sn := c.liveSnodes()
			caller, other, victim := sn[0], sn[1], sn[2]

			// A write to a frozen bucket parks its batch at the owner until
			// the bucket thaws, so freezing one bucket at victim and one at
			// other parks a call on each for as long as the test wants.
			frozenKey := func(s *Snode) (string, *bucket) {
				for i := 0; ; i++ {
					key := fmt.Sprintf("k%d", i)
					s.mu.Lock()
					ref, _, ok := s.ownedForLocked(hashspace.HashString(key))
					if ok {
						ref.bk.setState(bucketFrozen)
					}
					s.mu.Unlock()
					if ok {
						return key, ref.bk
					}
				}
			}
			put := func(e *endpoint, to transport.NodeID, key string) error {
				resp, err := ask[batchResp](e, to, untraced, func(op uint64) transport.WireMessage {
					return batchReq{Op: op, Kind: opPut, Items: []batchItem{{Key: key, Value: []byte("v")}}}
				})
				if err == nil && resp.Results[0].Err != "" {
					err = errors.New(resp.Results[0].Err)
				}
				return err
			}
			victimKey, victimBucket := frozenKey(victim)
			// The killed snode's parked batches spin until their bucket
			// thaws; end them with the test rather than at FreezeTimeout.
			defer victimBucket.setState(bucketLive)
			otherKey, otherBucket := frozenKey(other)
			fromPeer := make(chan error, 1)
			fromHandle := make(chan error, 1)
			toOther := make(chan error, 1)
			go func() { fromPeer <- put(&caller.endpoint, victim.id, victimKey) }()
			go func() { fromHandle <- put(&c.endpoint, victim.id, victimKey) }()
			go func() { toOther <- put(&caller.endpoint, other.id, otherKey) }()
			waitParked(t, &caller.endpoint, 2)
			waitParked(t, &c.endpoint, 1)

			if err := c.KillSnode(victim.id); err != nil {
				t.Fatal(err)
			}
			for name, ch := range map[string]chan error{"peer snode": fromPeer, "handle": fromHandle} {
				err := returnsWithin(t, time.Second, "call from the "+name, func() error { return <-ch })
				if !errors.Is(err, errPeerGone) {
					t.Fatalf("call from the %s to the killed snode = %v, want errPeerGone", name, err)
				}
			}
			select {
			case err := <-toOther:
				t.Fatalf("call to a live snode completed early: %v", err)
			default:
			}
			otherBucket.setState(bucketLive)
			if err := returnsWithin(t, 5*time.Second, "call to the live snode", func() error { return <-toOther }); err != nil {
				t.Fatalf("call to the live snode: %v", err)
			}
		})
	}
}

// TestDeadMiddleHopFailsFast: B leads the one group and sits in the
// middle of the custody chain A → B → C.  B crashes with its departure
// notice held back, so A and C still point at B.  A lookup from A, a
// join started at C, the leave of C's vnode, and an MGet and an MPut of a
// key of C's that the handle enters at A with no cached route each need
// B; each must end within a second although the RPC timeout is 30 s,
// because every hop is a call to the peer that answers it.  When hops
// were forwarded by send, a request lost at the dead hop cost each caller
// the whole timeout.  The MGet and the MPut must also succeed: their
// retry skips A, whose redirect led to B.
func TestDeadMiddleHopFailsFast(t *testing.T) {
	for _, fabric := range []string{"mem", "tcp"} {
		t.Run(fabric, func(t *testing.T) {
			var net transport.Network = transport.NewMem()
			if fabric == "tcp" {
				net = transport.NewTCP("127.0.0.1")
			}
			c, err := New(Config{Pmin: 8, Vmin: 4, Seed: 7, RPCTimeout: 30 * time.Second}, net)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			for i := 0; i < 3; i++ {
				if _, err := c.AddSnode(); err != nil {
					t.Fatal(err)
				}
			}
			ids := c.Snodes()
			b, cs, a := c.snodes[ids[0]], c.snodes[ids[1]], c.snodes[ids[2]]
			// B bootstraps the DHT and leads its group; C's join takes
			// partitions from B, which keeps custody pointers at C.  A
			// hosts nothing and knows only the boot route, at B.
			if _, _, err := c.CreateVnode(b.id); err != nil {
				t.Fatal(err)
			}
			cVnode, _, err := c.CreateVnode(cs.id)
			if err != nil {
				t.Fatal(err)
			}
			if err := c.Ping(); err != nil {
				t.Fatal(err)
			}
			var r uint64
			cs.mu.Lock()
			for p := range cs.owned {
				r = p.Start()
				break
			}
			cs.mu.Unlock()
			chain := func(h uint64) (toB, toC ownerRef) {
				a.mu.Lock()
				toB, _ = a.forwardTargetLocked(h)
				a.mu.Unlock()
				b.mu.Lock()
				toC, _ = b.forwardTargetLocked(h)
				b.mu.Unlock()
				return toB, toC
			}
			if toB, toC := chain(r); toB.Host != b.id || toC.Host != cs.id {
				t.Fatalf("chain for %#x is %d → %d → %d, want %d → %d → %d", r, a.id, toB.Host, toC.Host, a.id, b.id, cs.id)
			}
			// A key of C's whose cold batch enters at A: the handle spreads
			// unrouted keys over its snodes by hash.
			order := c.Snodes()
			var key string
			for i := 0; key == ""; i++ {
				k := fmt.Sprintf("k%d", i)
				h := hashspace.HashString(k)
				cs.mu.Lock()
				_, _, owned := cs.ownedForLocked(h)
				cs.mu.Unlock()
				if toB, toC := chain(h); owned && order[h%uint64(len(order))] == a.id && toB.Host == b.id && toC.Host == cs.id {
					key = k
				}
			}
			c.routeMu.Lock()
			if _, cached := probeLevels(hashspace.HashString(key), c.routes, &c.routeLvls); cached {
				t.Fatalf("the handle has a route for %q", key)
			}
			c.routeMu.Unlock()

			b.crashed.Store(true)
			b.stop()

			// A's boot pointer named the dead B, so a batch's one retry
			// skips A and enters at C, which owns the key: the batches
			// must succeed.
			ops := []struct {
				name    string
				run     func() error
				succeed bool
			}{
				{"lookup from A", func() error { _, err := a.resolveOwner(r); return err }, false},
				{"join at C", func() error { _, _, err := c.CreateVnode(cs.id); return err }, false},
				{"leave of C's vnode", func() error { return c.RemoveVnode(cVnode) }, false},
				{"MGet entered at A", func() error { return keyErr(c.MGet([]string{key})) }, true},
				{"MPut entered at A", func() error { return keyErr(c.MPut([]KV{{Key: key, Value: []byte("v")}})) }, true},
			}
			done := make([]chan error, len(ops))
			for i, op := range ops {
				done[i] = make(chan error, 1)
				go func() { done[i] <- op.run() }()
			}
			for i, op := range ops {
				err := returnsWithin(t, time.Second, op.name, func() error { return <-done[i] })
				t.Logf("%s: %v", op.name, err)
				if op.succeed && err != nil {
					t.Errorf("%s: %v", op.name, err)
				}
			}
		})
	}
}

// TestCustodyCycleEndsFast hand-sets two custody pointers at each other
// for one key's region.  A lookup and a batch item chasing them follow
// one bounce back (custody may have moved meanwhile), then end with a
// custody cycle error after fewer than 4 redirects — not after maxHops.
func TestCustodyCycleEndsFast(t *testing.T) {
	c := newTestCluster(t, 8, 4, 3, 1)
	ids := c.Snodes()
	a, b := c.snodes[ids[0]], c.snodes[ids[1]]
	if _, _, err := c.CreateVnode(ids[2]); err != nil {
		t.Fatal(err)
	}
	// A key that a cold batch enters at A; the third snode owns it all.
	var key string
	for i := 0; key == ""; i++ {
		k := fmt.Sprintf("k%d", i)
		if hashspace.HashString(k)%uint64(len(ids)) == 0 {
			key = k
		}
	}
	h := hashspace.HashString(key)
	region := hashspace.Containing(h, 40)
	for _, tomb := range []struct{ at, to *Snode }{{a, b}, {b, a}} {
		tomb.at.mu.Lock()
		tomb.at.setTombLocked(region, ownerRef{Host: tomb.to.id})
		tomb.at.mu.Unlock()
	}
	for _, op := range []struct {
		name string
		run  func() error
	}{
		{"lookup from A", func() error { _, err := a.lookupFrom(a.id, h, 0); return err }},
		{"MGet entered at A", func() error { return keyErr(c.MGet([]string{key})) }},
	} {
		before := c.StatsTotal().Forwards
		err := returnsWithin(t, time.Second, op.name, op.run)
		if err == nil || !strings.Contains(err.Error(), "custody cycle") {
			t.Errorf("%s: %v, want a custody cycle error", op.name, err)
		}
		if n := c.StatsTotal().Forwards - before; n >= 4 {
			t.Errorf("%s: %d redirects, want fewer than 4", op.name, n)
		}
	}
}

// TestOrphanedRegionNamesNoOwner: at R=1 a crash orphans its snode's
// partitions, and a lookup there ends at a survivor that says it knows no
// owner for the region.
func TestOrphanedRegionNamesNoOwner(t *testing.T) {
	c := newTestCluster(t, 8, 4, 3, 1)
	growCluster(t, c, 6)
	ids := c.Snodes()
	victim := c.snodes[ids[1]]
	var key string
	for i := 0; key == ""; i++ {
		k := fmt.Sprintf("k%d", i)
		victim.mu.Lock()
		if _, _, owned := victim.ownedForLocked(hashspace.HashString(k)); owned {
			key = k
		}
		victim.mu.Unlock()
	}
	if err := c.KillSnode(victim.id); err != nil {
		t.Fatal(err)
	}
	if err := c.Ping(); err != nil { // the survivors have dropped their pointers at the victim
		t.Fatal(err)
	}
	_, err := c.Lookup(key)
	if err == nil || !strings.Contains(err.Error(), "no route: snode ") || !strings.Contains(err.Error(), "knows no owner for the region") {
		t.Fatalf("lookup of an orphaned region: %v, want a snode that knows no owner for the region", err)
	}
}

// keyErr is a one-key batch's outcome as one error.
func keyErr(rs []BatchResult, err error) error {
	if err == nil && !rs[0].OK() {
		err = errors.New(rs[0].Err)
	}
	return err
}

// TestCallAllocations pins one in-memory round trip through ask: 10
// allocations from an snode, 10 from the handle (both sides of the
// exchange counted, measured with the same loop).  The codec is in the
// round trip: the request and the reply are each encoded by Send and
// decoded afresh by the receiver's read loop.
func TestCallAllocations(t *testing.T) {
	c := newTestCluster(t, 4, 2, 2, 1)
	ids := c.Snodes()
	s := c.liveSnodes()[0]
	for _, tc := range []struct {
		name string
		e    *endpoint
		max  float64
	}{
		{"snode", &s.endpoint, 10},
		{"handle", &c.endpoint, 10},
	} {
		got := testing.AllocsPerRun(1000, func() {
			_, err := ask[pingResp](tc.e, ids[1], untraced, func(op uint64) transport.WireMessage {
				return pingReq{Op: op}
			})
			if err != nil {
				t.Fatal(err)
			}
		})
		if got > tc.max {
			t.Errorf("%s: %v allocations per call, want at most %v", tc.name, got, tc.max)
		}
	}
}
