package cluster

import (
	"fmt"
	"sort"
	"sync"

	"dbdht/internal/cluster/transport"
	"dbdht/internal/hashspace"
)

// Automatic primary failover.  When an snode crashes (KillSnode, or the
// cluster handle's liveness detector declaring it dead), every partition
// it was primary for still has R−1 replica buckets on survivors, which
// serve nothing: reads and writes of the partition fail until one of them
// is promoted here, with no operator action.
//
// The protocol, run independently per dead primary:
//
//  1. Scan.  Each survivor receives snodeLeavingMsg{Crashed: true} and
//     scans its replica buckets' metadata for partitions whose primary
//     was the dead snode.
//  2. Coordinate.  For each such partition the pre-crash replica set is
//     recomputed from the placement function (the view plus the dead
//     snode); the lowest-id live member of that set is the coordinator.
//     Every survivor derives the same coordinator without messages, so
//     exactly one election runs per partition.
//  3. Elect.  The coordinator queries each live replica host
//     (promoteQueryReq) for its copy's write version and provisional
//     flag.  The winner is the most-caught-up copy: authoritative
//     (full-synced) beats provisional, then the highest version wins,
//     ties broken by the lower node id.  A restarted replica re-joins
//     with version 0 and so never outranks one that stayed up.
//  4. Promote.  The winner (ordered via promoteOrderReq, or locally if
//     the coordinator won) installs the replica bucket as a primary
//     bucket on a joined vnode of the partition's group — allocating a
//     fresh joined vnode if it hosts none — journals the install like a
//     migration commit, re-announces custody to every survivor and the
//     cluster handle exactly like RestartSnode does, and re-homes fresh
//     replicas for the partition.  Reads and writes resume.
//
// The election is best-effort by design: with R=2 there is one replica,
// so the "election" degenerates to promoting it; a partition whose every
// replica host also died is orphaned (reads and writes fail fast) until
// an operator restarts one of the snodes from its journal.  Promotion is
// idempotent — a duplicate order finds the partition already owned and
// succeeds without side effects.

// promoteQueryReq asks a replica host for its copy's election credentials
// for one partition of a dead primary.
type promoteQueryReq struct {
	Op        uint64
	Partition hashspace.Partition
	Dead      transport.NodeID
}

type promoteQueryResp struct {
	Op   uint64
	Has  bool   // this host backs the partition and its metadata names Dead as primary
	Prov bool   // the copy is provisional (write-created, never full-synced)
	Ver  uint64 // highest primary write version folded into the copy
}

func (m promoteQueryResp) replyOp() uint64  { return m.Op }
func (m promoteQueryResp) replyErr() string { return "" }

// promoteOrderReq tells the election winner to promote its replica bucket
// to primary.
type promoteOrderReq struct {
	Op        uint64
	Partition hashspace.Partition
	Dead      transport.NodeID
}

// overlapQueryReq asks whether the receiver knows — as owner, replica
// holder, replica metadata or custody tomb — any partition strictly
// deeper than Partition that overlaps it.  Partition geometry only ever
// deepens (splits refine, migrations preserve level), so one positive
// answer proves Partition is stale geometry and must not be promoted:
// its region was since refined, and the stale replica bucket backing it
// is bounded garbage, not the current copy.
type overlapQueryReq struct {
	Op        uint64
	Partition hashspace.Partition
}

type overlapQueryResp struct {
	Op     uint64
	Deeper bool
}

func (m overlapQueryResp) replyOp() uint64  { return m.Op }
func (m overlapQueryResp) replyErr() string { return "" }

// failoverScan runs on every survivor after a crash notice: find the
// partitions this snode backs whose primary died, and for those where
// this snode is the deterministic coordinator, run the election.
func (s *Snode) failoverScan(dead transport.NodeID) {
	s.mu.Lock()
	view := append([]transport.NodeID(nil), s.view...)
	live := make(map[transport.NodeID]bool, len(view))
	for _, id := range view {
		live[id] = true
	}
	// The placement the dead primary replicated with was computed over a
	// view that still contained it.
	preCrash := make([]transport.NodeID, 0, len(s.view)+1)
	preCrash = append(preCrash, s.view...)
	if !live[dead] {
		preCrash = append(preCrash, dead)
	}
	sort.Slice(preCrash, func(i, j int) bool { return preCrash[i] < preCrash[j] })
	var targets []hashspace.Partition
	for p, b := range s.rparts {
		if b.meta != nil && b.meta.prim == dead {
			targets = append(targets, p)
		}
	}
	r := s.cfg.Replicas
	s.mu.Unlock()

	// Elections for distinct partitions are independent — only the
	// coordinator-per-partition rule must hold, and that is decided
	// locally.  Run them concurrently: each election is a chain of small
	// RPCs (overlap probes, vote queries, the promotion order), so a
	// crashed primary with hundreds of partitions would otherwise pay the
	// whole chain's latency per partition and stretch the write blackout
	// by seconds.  Bounded, so a large custody set cannot stampede the
	// survivors with hundreds of simultaneous probe fan-outs.
	var wg sync.WaitGroup
	sem := make(chan struct{}, failoverElectionWorkers)
	for _, p := range targets {
		select {
		case <-s.stopCh:
			wg.Wait()
			return
		default:
		}
		cands := replicaHostsFor(p, dead, preCrash, r)
		coord := transport.NodeID(-1)
		for _, id := range cands {
			if live[id] && (coord < 0 || id < coord) {
				coord = id
			}
		}
		if coord != s.id {
			continue
		}
		wg.Add(1)
		sem <- struct{}{}
		go func(p hashspace.Partition) {
			defer func() { <-sem; wg.Done() }()
			if s.staleGeometry(p, view) {
				// A leftover replica of a refined partition: the deeper
				// descendants hold the current copies and run their own
				// elections; promoting the ancestor would shadow them with
				// an empty bucket.
				s.mutate(&replDropMsg{Partitions: []hashspace.Partition{p}})
				return
			}
			s.electAndPromote(p, dead, cands, live)
		}(p)
	}
	wg.Wait()
}

// failoverElectionWorkers bounds how many partition elections one
// coordinator runs concurrently after a crash notice.
const failoverElectionWorkers = 8

// deeperOverlapLocked reports whether this snode knows any partition
// strictly deeper than p overlapping p — as a primary bucket, a replica
// bucket or a custody tomb.  Caller holds s.mu.
func (s *Snode) deeperOverlapLocked(p hashspace.Partition) bool {
	return deeperIn(s.owned, p) || deeperIn(s.rparts, p) || deeperIn(s.tombs, p)
}

func deeperIn[V any](m map[hashspace.Partition]V, p hashspace.Partition) bool {
	for q := range m {
		if q.Level > p.Level && overlapping(q, p) {
			return true
		}
	}
	return false
}

// handleOverlapQuery answers a stale-geometry probe.  Fast (no nested
// RPCs) — runs inline in the actor loop.
func (s *Snode) handleOverlapQuery(m overlapQueryReq, from transport.NodeID) {
	s.mu.Lock()
	deeper := s.deeperOverlapLocked(m.Partition)
	s.mu.Unlock()
	s.send(from, untraced, overlapQueryResp{Op: m.Op, Deeper: deeper})
}

// staleGeometry asks every live view member whether it knows a partition
// strictly deeper than p overlapping it.  Replica buckets survive splits
// as bounded garbage at their old hosts, so a dead primary's buckets may
// name partitions the geometry has since refined; promoting one would
// install an empty ancestor that shadows live deeper partitions.  Levels
// only grow, so one positive answer anywhere is proof of staleness; an
// unreachable member is skipped (the check is best-effort, like the
// election it guards).
func (s *Snode) staleGeometry(p hashspace.Partition, view []transport.NodeID) bool {
	s.mu.Lock()
	local := s.deeperOverlapLocked(p)
	s.mu.Unlock()
	if local {
		return true
	}
	for _, id := range view {
		if id == s.id {
			continue
		}
		resp, err := ask[overlapQueryResp](&s.endpoint, id, untraced, func(op uint64) transport.WireMessage {
			return overlapQueryReq{Op: op, Partition: p}
		})
		if err == nil && resp.Deeper {
			return true
		}
	}
	return false
}

// electAndPromote runs one partition's failover election as coordinator
// and dispatches the promotion order to the winner.
func (s *Snode) electAndPromote(p hashspace.Partition, dead transport.NodeID, cands []transport.NodeID, live map[transport.NodeID]bool) {
	s.stats.Elections.Add(1)
	type vote struct {
		id   transport.NodeID
		prov bool
		ver  uint64
	}
	var votes []vote
	for _, id := range cands {
		if !live[id] {
			continue
		}
		if id == s.id {
			if own := s.promoteCredentials(p, dead); own.Has {
				votes = append(votes, vote{id: id, prov: own.Prov, ver: own.Ver})
			}
			continue
		}
		resp, err := ask[promoteQueryResp](&s.endpoint, id, untraced, func(op uint64) transport.WireMessage {
			return promoteQueryReq{Op: op, Partition: p, Dead: dead}
		})
		if err != nil {
			continue // unreachable elector: proceed with the quorum we have
		}
		if resp.Has {
			votes = append(votes, vote{id: id, prov: resp.Prov, ver: resp.Ver})
		}
	}
	if len(votes) == 0 {
		s.log.Warn("failover: no promotable replica", "partition", p.String(), "dead", int(dead))
		return
	}
	// Authoritative beats provisional, then highest version, then lowest id.
	win := votes[0]
	for _, v := range votes[1:] {
		switch {
		case win.prov != v.prov:
			if win.prov {
				win = v
			}
		case v.ver != win.ver:
			if v.ver > win.ver {
				win = v
			}
		case v.id < win.id:
			win = v
		}
	}
	if win.id == s.id {
		if err := s.promotePartition(p, dead); err != nil {
			s.log.Warn("failover: local promotion failed", "partition", p.String(), "err", err)
		}
		return
	}
	_, err := ask[ackResp](&s.endpoint, win.id, untraced, func(op uint64) transport.WireMessage {
		return promoteOrderReq{Op: op, Partition: p, Dead: dead}
	})
	if err != nil {
		s.log.Warn("failover: promotion order failed", "partition", p.String(), "winner", int(win.id), "err", err)
	}
}

// promoteCredentials reads this snode's election credentials for one
// partition of a dead primary out of the replica store (Op left zero).
func (s *Snode) promoteCredentials(p hashspace.Partition, dead transport.NodeID) promoteQueryResp {
	s.mu.Lock()
	defer s.mu.Unlock()
	if b, ok := s.rparts[p]; ok && b.meta != nil && b.meta.prim == dead {
		return promoteQueryResp{Has: true, Prov: b.provisional, Ver: b.meta.ver}
	}
	return promoteQueryResp{}
}

// handlePromoteQuery answers an election query.  Fast (no nested RPCs) —
// runs inline in the actor loop.
func (s *Snode) handlePromoteQuery(m promoteQueryReq, from transport.NodeID) {
	resp := s.promoteCredentials(m.Partition, m.Dead)
	resp.Op = m.Op
	s.send(from, untraced, resp)
}

// handlePromoteOrder executes a promotion order from the coordinator.
// Runs in its own goroutine: promotion journals durably and re-homes
// replicas over the fabric.
func (s *Snode) handlePromoteOrder(m promoteOrderReq, from transport.NodeID) {
	resp := ackResp{Op: m.Op}
	if err := s.promotePartition(m.Partition, m.Dead); err != nil {
		resp.Err = err.Error()
	}
	s.send(from, untraced, resp)
}

// promotePartition installs this snode's replica bucket for p as the
// partition's new primary bucket.  Idempotent: promoting a partition this
// snode already owns (any deeper split of it included) is a no-op.
func (s *Snode) promotePartition(p hashspace.Partition, dead transport.NodeID) error {
	s.mu.Lock()
	if _, _, owned := s.ownedForLocked(p.Start()); owned {
		s.mu.Unlock()
		return nil // duplicate order, or custody already moved here
	}
	b, has := s.rparts[p]
	if !has || b.meta == nil {
		s.mu.Unlock()
		return fmt.Errorf("cluster: snode %d holds no promotable replica of %s", s.id, p.String())
	}
	if b.meta.prim != dead {
		s.mu.Unlock()
		return fmt.Errorf("cluster: snode %d replica of %s names primary %d, not %d", s.id, p.String(), b.meta.prim, dead)
	}
	ver := b.meta.ver
	// Host the partition on a joined vnode of its group, allocating a
	// fresh one (journaled, so a restart replays the allocation) when
	// none lives here.
	install := walMigInstallRec{Group: b.meta.group, Level: p.Level, Partition: p, Data: b.kv}
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
	// Journal the install first — exactly like a migration commit — and
	// only then flip the in-memory state, so a crash mid-promotion
	// replays to the same outcome.
	seq := s.journal(install.walTag(), install.fields)
	s.mu.Unlock()
	if !s.awaitDurable(seq) {
		return fmt.Errorf("cluster: snode %d stopping: promotion not durable", s.id)
	}
	s.mu.Lock()
	vs, still := s.vnodes[install.To]
	if !still {
		s.mu.Unlock()
		return fmt.Errorf("cluster: snode %d: vnode %v vanished during promotion", s.id, install.To)
	}
	if _, _, owned := s.ownedForLocked(p.Start()); owned {
		s.mu.Unlock()
		return nil
	}
	install.applyLocked(s)
	if bk, ok := vs.parts[p]; ok {
		bk.mu.Lock()
		bk.ver = ver // keep the version climbing across the handover
		bk.mu.Unlock()
	}
	route := routeEntry{Partition: p, Ref: ownerRef{Vnode: install.To, Host: s.id}}
	view := append([]transport.NodeID(nil), s.view...)
	s.mu.Unlock()
	s.stats.Promotions.Add(1)
	s.log.Info("failover: promoted to primary", "partition", p.String(), "dead", int(dead), "ver", ver)
	// Re-announce custody exactly like a restart does: survivors adopt
	// pointers to the new primary, and the cluster handle repairs its
	// client routes.
	ann := snodeRecoveredMsg{Recovered: s.id, Routes: []routeEntry{route}}
	for _, id := range view {
		if id != s.id {
			s.send(id, untraced, ann)
		}
	}
	s.send(clientID, untraced, ann)
	s.rehomeReplicas(p)
	return nil
}
