package cluster

import (
	"fmt"
	"slices"
	"time"

	"dbdht/internal/cluster/transport"
	"dbdht/internal/hashspace"
)

// Automatic primary failover.  When an snode crashes (KillSnode, or the
// cluster handle's liveness detector declaring it dead), the partitions
// it was primary for fail reads and writes until a surviving whole copy
// (replica.go) is promoted here, with no operator action.  Every survivor
// holding a copy last fed by the dead primary runs its election:
//
//  1. Ask every live snode (promoteQueryReq) for its copy of the region
//     from the dead primary — the partition's own or an ancestor's — and
//     that copy's write version, the deepest partition level it knows
//     over the region (as owner, copy holder or custody tomb), and
//     whether it owns the region.
//  2. Levels only deepen, so a deeper answer proves the dead primary
//     split the region after this copy was fed: split the copy in place
//     (walReplSplitRec) and elect each half.
//  3. Otherwise the best copy — highest version, then lowest id —
//     promotes itself, unless some snode owns the region already: it
//     installs the copy on a joined vnode of the partition's group
//     (allocating one if it hosts none), journaled like a migration
//     commit, announces custody like RestartSnode does, and syncs its
//     targets.  Copies of the winning version that are the partition's
//     own stay in its fan-out set until anti-entropy hands them off; the
//     others are dropped.
//
// A holder decides only once every live snode has answered, so every
// holder computes the winner from the same answers: one copy promotes
// without a coordinator, and a holder asking after the promotion meets
// the owner.  A partition whose every copy died is orphaned (its reads
// and writes fail fast) until an operator restarts a holder from its
// journal.  Promoting a partition the snode already owns is a no-op.

// promoteQueryReq asks one live snode what it knows of the region of
// Partition, whose primary Dead died.
type promoteQueryReq struct {
	Op        uint64
	Partition hashspace.Partition
	Dead      transport.NodeID
}

type promoteQueryResp struct {
	Op    uint64
	Has   bool   // holds a copy covering Partition last fed by Dead
	Exact bool   // that copy is Partition's own, not an ancestor's
	Ver   uint64 // that copy's write version
	Owns  bool   // owns a partition covering Partition: nothing to promote
	Level uint8  // deepest level of a partition it owns, holds or points at over Partition
}

func (m promoteQueryResp) replyOp() uint64  { return m.Op }
func (m promoteQueryResp) replyErr() string { return "" }

// failoverScan runs on every survivor after a crash notice: it runs the
// election of every copy this snode holds for the dead primary.
func (s *Snode) failoverScan(dead transport.NodeID) {
	s.mu.Lock()
	var held []hashspace.Partition
	for p, b := range s.rparts {
		if b.prim == dead {
			held = append(held, p)
		}
	}
	s.mu.Unlock()

	// Elections for distinct partitions are independent.  Run them
	// concurrently: each is a round of small RPCs, so a crashed primary
	// with hundreds of partitions would otherwise pay the round's latency
	// per partition and stretch the write blackout by seconds.  Bounded,
	// so a large copy set cannot stampede the survivors with hundreds of
	// simultaneous query fan-outs.  Nothing waits for the last ones.
	sem := make(chan struct{}, failoverElectionWorkers)
	for _, p := range held {
		select {
		case <-s.stopCh:
			return
		case sem <- struct{}{}:
		}
		go func() {
			defer func() { <-sem }()
			s.elect(p, dead)
		}()
	}
}

// failoverElectionWorkers bounds how many partition elections one
// survivor runs concurrently after a crash notice.
const failoverElectionWorkers = 8

// elect runs the election of this snode's copies from dead over p (see
// the file header); it returns at once if there are none.
func (s *Snode) elect(p hashspace.Partition, dead transport.NodeID) {
	var view []transport.NodeID
	var answers []promoteQueryResp
	self := -1
	for {
		s.mu.Lock()
		held := false
		for q, b := range s.rparts {
			held = held || q.Overlaps(p) && b.prim == dead
		}
		view = slices.Clone(s.view)
		s.mu.Unlock()
		if self = slices.Index(view, s.id); !held || self < 0 {
			return
		}
		answers = make([]promoteQueryResp, len(view))
		errs := fanOut(len(view), func(i int) error {
			var err error
			if view[i] == s.id {
				answers[i] = s.promoteCredentials(promoteQueryReq{Partition: p, Dead: dead})
			} else {
				answers[i], err = ask[promoteQueryResp](&s.endpoint, view[i], untraced, func(op uint64) transport.WireMessage {
					return promoteQueryReq{Op: op, Partition: p, Dead: dead}
				})
			}
			return err
		})
		if firstErr(errs) == nil {
			break
		}
		// A missing answer may be a fresher copy's, whose holder may decide
		// too.  Ask again shortly: a crashed snode leaves the view.
		select {
		case <-s.stopCh:
			return
		case <-time.After(50 * time.Millisecond):
		}
	}
	level := p.Level
	for _, a := range answers {
		level = max(level, a.Level)
	}
	if level > p.Level {
		lo, hi := p.Split()
		s.mu.Lock()
		s.holdFedLocked(lo, dead) // splits a copy dead fed down to lo and hi
		s.mu.Unlock()
		s.elect(lo, dead)
		s.elect(hi, dead)
		return
	}
	if !answers[self].Has {
		return
	}

	s.stats.Elections.Add(1)
	win := self
	for i, a := range answers {
		switch {
		case a.Owns:
			return // already owned: promoted by another copy, or never orphaned
		case a.Has && (a.Ver > answers[win].Ver || a.Ver == answers[win].Ver && view[i] < view[win]):
			win = i
		}
	}
	if win != self {
		return
	}
	// Only copies of the winning version that are p's own stay: a copy of
	// an ancestor was fed by the dead primary, so it would skip the new
	// primary's writes.  The others are dropped.
	var keep, drop []transport.NodeID
	for i, a := range answers {
		if i != self && a.Has {
			if a.Ver == answers[self].Ver && a.Exact {
				keep = append(keep, view[i])
			} else {
				drop = append(drop, view[i])
			}
		}
	}
	if err := s.promotePartition(p, dead, keep); err != nil {
		s.log.Warn("failover: promotion failed", "partition", p.String(), "err", err)
		return
	}
	for _, h := range drop {
		s.send(h, untraced, replDropMsg{Partitions: []hashspace.Partition{p}})
	}
}

// promoteCredentials is this snode's answer to an election query.  Fast
// (no nested RPCs): the actor loop answers inline.
func (s *Snode) promoteCredentials(m promoteQueryReq) promoteQueryResp {
	p, dead := m.Partition, m.Dead
	s.mu.Lock()
	defer s.mu.Unlock()
	resp := promoteQueryResp{Op: m.Op, Level: deepestOver(s.tombs, p, deepestOver(s.rparts, p, deepestOver(s.owned, p, 0)))}
	if _, q, ok := s.ownedForLocked(p.Start()); ok && q.Level <= p.Level {
		resp.Owns = true
	}
	b, exact := s.rparts[p]
	ok := exact
	if !ok {
		_, b, ok = s.replicaAboveLocked(p)
	}
	if ok && b.prim == dead {
		resp.Has, resp.Exact, resp.Ver = true, exact, b.ver
	}
	return resp
}

// deepestOver is the deepest level, at least level, of a partition of m
// overlapping p.
func deepestOver[V any](m map[hashspace.Partition]V, p hashspace.Partition, level uint8) uint8 {
	for q := range m {
		if q.Level > level && q.Overlaps(p) {
			level = q.Level
		}
	}
	return level
}

// promotePartition installs this snode's copy of p as the partition's new
// primary bucket; keep are the other holders of an equally fresh copy,
// which stay in its fan-out set until anti-entropy hands them off.
// Idempotent: promoting a partition this snode already owns (any deeper
// split of it included) is a no-op, and a promotion that finds the copy
// taken by another fails.
func (s *Snode) promotePartition(p hashspace.Partition, dead transport.NodeID, keep []transport.NodeID) error {
	s.mu.Lock()
	if _, _, owned := s.ownedForLocked(p.Start()); owned {
		s.mu.Unlock()
		return nil // duplicate, or custody already moved here
	}
	b, has := s.rparts[p]
	if !has || b.prim != dead {
		s.mu.Unlock()
		return fmt.Errorf("cluster: snode %d holds no replica of %s fed by %d", s.id, p.String(), dead)
	}
	// Host the partition on a joined vnode of its group, allocating a
	// fresh one (journaled, so a restart replays the allocation) when
	// none lives here.
	install := walMigInstallRec{Group: b.group, Level: p.Level, Partition: p, Data: b.kv}
	hosted := false
	for _, v := range s.vnodes {
		if v.joined && v.group == install.Group && v.level == p.Level {
			install.To, hosted = v.name, true
			break
		}
	}
	if !hosted {
		vnode := walVnodeRec{
			Name:  VnodeName{Snode: s.id, Local: s.nextLocal},
			Group: install.Group, Level: p.Level, Joined: true,
		}
		vnode.applyLocked(s)
		s.journal(vnode.walTag(), vnode.fields)
		install.To = vnode.Name
	}
	// The install is journaled before it goes live, exactly like a
	// move's, so a crash mid-promotion replays to the same outcome.
	ver := b.ver
	if err := s.installLocked(install, ver, keep, 0); err != nil {
		return err
	}
	route := routeEntry{Partition: p, Ref: ownerRef{Vnode: install.To, Host: s.id}}
	s.stats.Promotions.Add(1)
	s.log.Info("failover: promoted to primary", "partition", p.String(), "dead", int(dead), "ver", ver)
	s.announce([]routeEntry{route})
	s.rehomeReplicas(p)
	return nil
}

// announce tells every other live snode and the cluster handle that this
// snode owns routes, exactly like a restart does: survivors adopt custody
// pointers to it, and the handle repairs its client routes.  A promotion
// announces the promoted partition; every survivor of a crash announces
// all it owns, because the dead snode took its custody pointers with it
// and chains that ran through it would leave regions it never owned
// unroutable.
func (s *Snode) announce(routes []routeEntry) {
	if len(routes) == 0 {
		return
	}
	s.mu.Lock()
	view := slices.Clone(s.view)
	s.mu.Unlock()
	ann := snodeRecoveredMsg{Recovered: s.id, Routes: routes}
	for _, id := range view {
		if id != s.id {
			s.send(id, untraced, ann)
		}
	}
	s.send(clientID, untraced, ann)
}
