// Package balance implements the partition-reassignment algorithm of §2.5 of
// Rufino et al. (IPDPS 2004) over an abstract Partition Distribution Record,
// and the group planner built on it.
//
// The same algorithm drives both scopes of the model: the global approach
// runs it over the GPDR (every vnode of the DHT), the local approach runs it
// over the LPDR of one group (§3.1: "within each group, balancement is based
// on the same algorithm used by the global approach").  The package is
// generic in the vnode key so the simulator can use small integers while the
// cluster runtime uses canonical snode_id.vnode_id names.
//
// A Table records the number of partitions per vnode.  Because every
// partition in a scope shares the same size (invariants G3/G3′), minimizing
// σ(P_v, P̄_v) minimizes σ(Q_v, Q̄_v) within the scope (§2.4), so the
// algorithm reasons purely about counts; owners translate the returned moves
// into actual partition (and data) transfers.
//
// PlanJoin and PlanLeave are the group planner: the model (packages core,
// global and scope) and the cluster runtime's group leaders apply their
// decisions and make none of their own.  A full group splits into two
// random halves of Vmin and a random child takes the join (§3.6, §3.7); a
// group's last member may not leave.  Both draw only from the random
// source their caller passes in.  One step stays the model's alone: after
// a leave it coalesces partitions when G4's upper bound demands it
// (MergeNeeded), and the live leader does not; merging on the runtime is
// the shrink work still open on the roadmap.
package balance
