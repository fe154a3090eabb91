package cluster

import (
	"fmt"
	"sort"

	"dbdht/internal/balance"
	"dbdht/internal/cluster/transport"
	"dbdht/internal/core"
)

// groupOp is one serialized balancement event for a led group, and the
// address its answer goes to.
type groupOp struct {
	join  *joinGroupReq
	leave *leaveVnodeReq
	from  transport.NodeID
}

// groupOpsCap bounds a led group's pending balancement events.  A join or
// leave arriving at a full queue is answered Retry, which every initiator
// already handles by re-resolving and asking again.  Events run one at a
// time, each a few RPCs long; 256 pending is far beyond any burst of
// joins the cluster makes, so a Retry for this reason marks overload.
const groupOpsCap = 256

// ledGroup is the authoritative state of a group at its leader: the LPDR as
// a balance table plus each member's host.  All mutations happen on the
// group's worker goroutine, which serializes balancement events within the
// group while other groups progress on their own leaders — the paper's
// parallelism model (§3.1).
type ledGroup struct {
	id    core.GroupID
	level uint8
	table *balance.Table[VnodeName]
	host  map[VnodeName]transport.NodeID
	// ops feeds the worker.  It is sent on only under s.mu while dead is
	// false, and closed only by retireLocked, which sets dead.
	ops  chan groupOp
	dead bool
}

// retireLocked dissolves the group at this snode: the worker answers
// whatever is still queued Retry, then exits.  Caller holds s.mu.
func (lg *ledGroup) retireLocked() {
	if !lg.dead {
		lg.dead = true
		close(lg.ops)
	}
}

// installLeaderLocked makes this snode the leader of the group described by
// st and starts its worker.  Caller holds s.mu.
func (s *Snode) installLeaderLocked(st lpdrState) {
	lg := &ledGroup{
		id:    st.Group,
		level: st.Level,
		table: balance.NewTable[VnodeName](func(a, b VnodeName) bool { return a.Less(b) }),
		host:  make(map[VnodeName]transport.NodeID, len(st.Members)),
		ops:   make(chan groupOp, groupOpsCap),
	}
	for _, m := range st.Members {
		if err := lg.table.Add(m.Vnode); err != nil {
			panic(fmt.Sprintf("cluster: duplicate member %v in group init", m.Vnode))
		}
		if err := lg.table.SetCount(m.Vnode, m.Count); err != nil {
			panic(fmt.Sprintf("cluster: invalid count for %v: %v", m.Vnode, err))
		}
		lg.host[m.Vnode] = m.Host
	}
	s.led[st.Group] = lg
	go s.groupWorker(lg)
}

// handleGroupInit accepts leadership of a (child) group after a split or a
// leadership handoff.
func (s *Snode) handleGroupInit(m groupInit, from transport.NodeID) {
	s.mu.Lock()
	if _, dup := s.led[m.State.Group]; dup {
		s.mu.Unlock()
		s.send(from, untraced, ackResp{Op: m.Op, Err: fmt.Sprintf("group %v already led at %d", m.State.Group, s.id)})
		return
	}
	st := m.State
	st.Leader = s.id
	s.replicas[st.Group] = &st
	s.installLeaderLocked(st)
	s.mu.Unlock()
	// Announce the new group (and the dissolution of its parent, if this
	// init came from a split) to every member host.
	var dissolved []core.GroupID
	if st.Group.Len > 0 {
		dissolved = append(dissolved, parentGroup(st.Group))
	}
	s.broadcastSync(st, dissolved)
	s.send(from, untraced, ackResp{Op: m.Op})
}

// parentGroup strips the most-significant digit of a child identifier.
func parentGroup(g core.GroupID) core.GroupID {
	return core.GroupID{Bits: g.Bits &^ (1 << (g.Len - 1)), Len: g.Len - 1}
}

// routeJoin steers a join request (routeOp).
func (s *Snode) routeJoin(m joinGroupReq, from transport.NodeID) {
	s.routeOp(m.Group, groupOp{join: &m, from: from}, func(next transport.NodeID) transport.WireMessage {
		return joinGroupResp{Op: m.Op, Group: m.Group, Retry: next == 0, Next: next}
	})
}

// routeLeave steers a vnode-leave request (routeOp).  The vnode's host
// names the group from its own vnode table, so a caller need not know it.
func (s *Snode) routeLeave(m leaveVnodeReq, from transport.NodeID) {
	s.mu.Lock()
	if vs, ok := s.vnodes[m.Vnode]; ok && vs.joined {
		m.Group = vs.group
	}
	s.mu.Unlock()
	s.routeOp(m.Group, groupOp{leave: &m, from: from}, func(next transport.NodeID) transport.WireMessage {
		return leaveVnodeResp{Op: m.Op, Group: m.Group, Retry: next == 0, Next: next}
	})
}

// routeOp queues a balancement event if group g is led here.  Otherwise
// it answers the caller with answer(leader), a redirect to the leader this
// snode knows of, or answer(0), a Retry, as it does when the queue is
// full.
func (s *Snode) routeOp(g core.GroupID, op groupOp, answer func(next transport.NodeID) transport.WireMessage) {
	var next transport.NodeID
	s.mu.Lock()
	if lg, ok := s.led[g]; ok && !lg.dead {
		select {
		case lg.ops <- op:
			s.mu.Unlock()
			return
		default:
		}
	} else if rep, ok := s.replicas[g]; ok && rep.Leader != s.id {
		next = rep.Leader
		s.stats.Forwards.Add(1)
	}
	s.mu.Unlock()
	s.send(op.from, untraced, answer(next))
}

// groupWorker serializes one group's balancement events.  It exits once
// the group's queue is closed and drained.
func (s *Snode) groupWorker(lg *ledGroup) {
	for op := range lg.ops {
		s.mu.Lock()
		dead := lg.dead
		s.mu.Unlock()
		if dead {
			// The group dissolved (split, handoff or stop) while this op
			// was queued.
			if op.join != nil {
				s.send(op.from, untraced, joinGroupResp{Op: op.join.Op, Retry: true})
			}
			if op.leave != nil {
				s.send(op.from, untraced, leaveVnodeResp{Op: op.leave.Op, Retry: true})
			}
			continue
		}
		switch {
		case op.join != nil:
			s.leaderJoin(lg, *op.join, op.from)
		case op.leave != nil:
			s.leaderLeave(lg, *op.leave, op.from)
		}
	}
}

// memberHosts returns the deduplicated hosts of a group's members.
func (lg *ledGroup) memberHosts() []transport.NodeID {
	seen := make(map[transport.NodeID]struct{}, len(lg.host))
	for _, h := range lg.host {
		seen[h] = struct{}{}
	}
	out := make([]transport.NodeID, 0, len(seen))
	for h := range seen {
		out = append(out, h)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// state serializes the group's LPDR for syncs and inits.
func (lg *ledGroup) state(leader transport.NodeID) lpdrState {
	st := lpdrState{Group: lg.id, Level: lg.level, Leader: leader}
	for _, v := range lg.table.Keys() {
		c, _ := lg.table.Count(v)
		st.Members = append(st.Members, memberInfo{Vnode: v, Host: lg.host[v], Count: c})
	}
	return st
}

// broadcastSync refreshes every member host's replica, including the
// leader's own (a leader need not host any member vnode, so it would miss a
// fabric-only broadcast).
func (s *Snode) broadcastSync(st lpdrState, dissolved []core.GroupID) {
	msg := lpdrSyncMsg{State: st, Dissolved: dissolved}
	s.mutate(&msg)
	hosts := make(map[transport.NodeID]struct{})
	for _, m := range st.Members {
		hosts[m.Host] = struct{}{}
	}
	delete(hosts, s.id)
	for h := range hosts {
		s.send(h, untraced, msg)
	}
}

// leaderJoin applies balance's group planner to one new vnode of the led
// group: it either splits the full group (§3.7) or runs the §2.5 creation
// algorithm inside it, whose scope split and moves each run on every host
// at once.
func (s *Snode) leaderJoin(lg *ledGroup, m joinGroupReq, from transport.NodeID) {
	fail := func(err string) {
		s.send(from, untraced, joinGroupResp{Op: m.Op, Err: err})
	}
	s.mu.Lock()
	plan, err := lg.table.PlanJoin(m.NewVnode, s.cfg.Pmin, s.cfg.Vmin, s.rng)
	s.mu.Unlock()
	if err != nil {
		fail(err.Error())
		return
	}
	if plan.Halves != nil {
		s.splitLedGroup(lg, plan, m, from)
		return
	}
	lg.host[m.NewVnode] = m.NewHost
	var splitErr error
	if plan.ScopeSplit {
		lg.level++
		hosts := lg.memberHosts()
		splitErr = firstErr(fanOut(len(hosts), func(i int) error {
			_, err := ask[ackResp](&s.endpoint, hosts[i], untraced, func(op uint64) transport.WireMessage {
				return splitAllReq{Op: op, Group: lg.id, NewLevel: lg.level}
			})
			return err
		}))
	}
	if err = splitErr; err != nil {
		for _, mv := range plan.Moves {
			lg.table.Revert(mv)
		}
	} else {
		err = s.runMoves(lg, plan.Moves)
	}
	// The LPDR keeps only what landed.  A new vnode that received nothing
	// is abandoned by its creator, so it leaves the table too.  Every host
	// learns the outcome, unless nothing changed or a host may have missed
	// the split.
	c, _ := lg.table.Count(m.NewVnode)
	if c == 0 {
		_, _ = lg.table.Remove(m.NewVnode)
		delete(lg.host, m.NewVnode)
	}
	if splitErr == nil && (plan.ScopeSplit || c > 0) {
		s.broadcastSync(lg.state(s.id), nil)
	}
	if err != nil {
		fail(err.Error())
		return
	}
	s.stats.JoinsLed.Add(1)
	s.send(from, untraced, joinGroupResp{Op: m.Op, Group: lg.id})
}

// runMoves executes a plan's moves concurrently and waits for all of
// them.  The plan is already in the table.  A plan lands whole or not at
// all: a vnode short of its plan may hold fewer than Pmin partitions
// (G4), so when a move fails every move that landed is moved back.  The
// table follows the partitions: it ends at the pre-plan counts, except
// for a move back that failed too, whose partition stays counted where it
// landed.  It returns the first error.
func (s *Snode) runMoves(lg *ledGroup, moves []balance.Move[VnodeName]) error {
	errs := s.transfers(lg, moves)
	err := firstErr(errs)
	if err == nil {
		return nil
	}
	var back []balance.Move[VnodeName]
	for i, merr := range errs {
		lg.table.Revert(moves[i])
		if merr == nil {
			back = append(back, balance.Move[VnodeName]{From: moves[i].To, To: moves[i].From})
		}
	}
	for i, berr := range s.transfers(lg, back) {
		if berr != nil {
			lg.table.Revert(back[i])
		}
	}
	return err
}

// transfers runs every move at once and returns their errors, in order.
func (s *Snode) transfers(lg *ledGroup, moves []balance.Move[VnodeName]) []error {
	return fanOut(len(moves), func(i int) error { return s.orderTransfer(lg, moves[i].From, moves[i].To) })
}

// orderTransfer executes one planned handover: instruct the victim's host,
// wait for completion.
func (s *Snode) orderTransfer(lg *ledGroup, from, to VnodeName) error {
	fromHost, ok := lg.host[from]
	if !ok {
		return fmt.Errorf("cluster: no host for victim %v", from)
	}
	toHost, ok := lg.host[to]
	if !ok {
		return fmt.Errorf("cluster: no host for receiver %v", to)
	}
	_, err := ask[transferResp](&s.endpoint, fromHost, untraced, func(op uint64) transport.WireMessage {
		return transferReq{Op: op, Group: lg.id, From: from, To: to, ToHost: toHost, Level: lg.level}
	})
	if err != nil {
		return fmt.Errorf("cluster: transfer %v→%v: %w", from, to, err)
	}
	return nil
}

// splitLedGroup divides a full group into the planner's two halves
// (§3.7), hands each child to its leader, then redirects the pending join
// to the planner's chosen child.
func (s *Snode) splitLedGroup(lg *ledGroup, plan balance.Join[VnodeName], m joinGroupReq, from transport.NodeID) {
	var ids [2]core.GroupID
	var leaders [2]transport.NodeID
	ids[0], ids[1] = lg.id.Split()
	for i, half := range plan.Halves {
		st := lpdrState{Group: ids[i], Level: lg.level}
		minName := half[0]
		for _, v := range half {
			if v.Less(minName) {
				minName = v
			}
			c, _ := lg.table.Count(v)
			st.Members = append(st.Members, memberInfo{Vnode: v, Host: lg.host[v], Count: c})
		}
		leaders[i] = lg.host[minName]
		st.Leader = leaders[i]
		_, err := ask[ackResp](&s.endpoint, leaders[i], untraced, func(op uint64) transport.WireMessage {
			return groupInit{Op: op, State: st}
		})
		if err != nil {
			s.send(from, untraced, joinGroupResp{Op: m.Op, Err: err.Error()})
			return
		}
	}
	// The parent group is gone; retire its worker after the queue drains.
	s.mu.Lock()
	lg.retireLocked()
	delete(s.led, lg.id)
	s.mu.Unlock()
	s.stats.GroupSplits.Add(1)
	s.send(from, untraced, joinGroupResp{Op: m.Op, Group: ids[plan.Child], Next: leaders[plan.Child]})
}

// leaderLeave dissolves one vnode inside the led group: move its partitions
// out along the planner's moves, all at once, then drop it and flatten.
// Merging (halving P_g) is skipped — a group scope rarely owns complete
// sibling pairs (see scope.ErrIncompleteTiling), so G4′'s upper bound is
// soft here, as in any group scope of package core.
func (s *Snode) leaderLeave(lg *ledGroup, m leaveVnodeReq, from transport.NodeID) {
	fail := func(err string) {
		s.send(from, untraced, leaveVnodeResp{Op: m.Op, Err: err})
	}
	vnodeHost := lg.host[m.Vnode]
	// The vnode stays in the table at zero while its partitions move out,
	// one transfer each, so a failed leave counts them back with it.
	moves, err := lg.table.PlanLeave(m.Vnode)
	if err != nil {
		fail(fmt.Sprintf("group %v: %v", lg.id, err))
		return
	}
	if err = s.runMoves(lg, moves); err == nil {
		_, err = ask[ackResp](&s.endpoint, vnodeHost, untraced, func(op uint64) transport.WireMessage {
			return shipVnodeReq{Op: op, Vnode: m.Vnode}
		})
	}
	if c, _ := lg.table.Count(m.Vnode); c == 0 {
		_, _ = lg.table.Remove(m.Vnode)
		delete(lg.host, m.Vnode)
		if err == nil {
			err = s.runMoves(lg, lg.table.Flatten(s.cfg.Pmin))
		}
	}
	s.broadcastSync(lg.state(s.id), nil)
	if err != nil {
		fail(err.Error())
		return
	}
	s.stats.LeavesLed.Add(1)
	s.send(from, untraced, leaveVnodeResp{Op: m.Op})
}

// relinquishLeadership hands every group this snode leads to another member
// host, in preparation for the snode leaving the cluster.  Groups whose
// only member hosts are this snode cannot be handed off and are reported.
func (s *Snode) relinquishLeadership() error {
	s.mu.Lock()
	groups := make([]*ledGroup, 0, len(s.led))
	for _, lg := range s.led {
		groups = append(groups, lg)
	}
	s.mu.Unlock()
	for _, lg := range groups {
		s.mu.Lock()
		if lg.dead {
			s.mu.Unlock()
			continue
		}
		var target transport.NodeID
		found := false
		// Successor: host of the smallest member vnode not hosted here.
		for _, v := range lg.table.Keys() {
			if h := lg.host[v]; h != s.id {
				target, found = h, true
				break
			}
		}
		if !found {
			s.mu.Unlock()
			return fmt.Errorf("cluster: group %v has no member host other than %d", lg.id, s.id)
		}
		st := lg.state(target)
		lg.retireLocked()
		delete(s.led, lg.id)
		s.mu.Unlock()
		_, err := ask[ackResp](&s.endpoint, target, untraced, func(op uint64) transport.WireMessage {
			return groupInit{Op: op, State: st}
		})
		if err != nil {
			return fmt.Errorf("cluster: handoff of %v to %d: %w", lg.id, target, err)
		}
	}
	return nil
}
