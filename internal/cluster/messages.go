package cluster

import (
	"dbdht/internal/cluster/transport"
	"dbdht/internal/core"
	"dbdht/internal/hashspace"
)

// Protocol messages.  Every request carries Op, the sender's correlation
// id, and is answered to the frame's From: no snode passes on a request
// it did not originate.  A hop that cannot answer a lookup, join or leave
// redirects its caller instead (Next; chase in endpoint.go).  Every
// response implements reply (two one-line methods beside the struct),
// which is how the receive loops hand it to the call awaiting its Op.
//
// Every message rides the binary frame codec in wire.go, the fabric's
// only encoding, on either medium: a new message needs a tag, a
// fields walk and a row of the message table there before it can be sent
// (docs/WIRE.md, "Adding a message").

// ackResp is the response of every request whose only outcome is success
// or an error string: splitAllReq, shipVnodeReq, groupInit, the three
// migration requests, replWriteReq and replSyncReq.
type ackResp struct {
	Op  uint64
	Err string
}

func (m ackResp) replyOp() uint64  { return m.Op }
func (m ackResp) replyErr() string { return m.Err }

// memberInfo is one LPDR row: a vnode, its host and its partition count.
type memberInfo struct {
	Vnode VnodeName
	Host  transport.NodeID
	Count int
}

// lpdrState is a serialized LPDR replica: the paper's per-group table of
// partitions per vnode (§3.2) plus the group's splitlevel and leader.
type lpdrState struct {
	Group   core.GroupID
	Level   uint8
	Leader  transport.NodeID
	Members []memberInfo
}

// --- lookup (§3.6: find the vnode holding the partition containing r) ---

type lookupReq struct {
	Op uint64
	R  uint64
}

type lookupResp struct {
	Op        uint64
	Owner     VnodeName
	Host      transport.NodeID
	Partition hashspace.Partition
	Group     core.GroupID
	Leader    transport.NodeID
	Next      transport.NodeID // not the owner: ask the next custody hop
	Err       string
}

func (m lookupResp) replyOp() uint64        { return m.Op }
func (m lookupResp) replyErr() string       { return m.Err }
func (m lookupResp) next() transport.NodeID { return m.Next }

// --- vnode creation (§2.5 + §3.6/§3.7) ---

type createVnodeReq struct {
	Op        uint64
	Bootstrap bool // first vnode of the DHT: creates group 0 locally
}

type createVnodeResp struct {
	Op    uint64
	Vnode VnodeName
	Group core.GroupID
	Err   string
}

func (m createVnodeResp) replyOp() uint64  { return m.Op }
func (m createVnodeResp) replyErr() string { return m.Err }

// joinGroupReq asks a group leader to admit a new (empty) vnode.
type joinGroupReq struct {
	Op       uint64
	Group    core.GroupID
	NewVnode VnodeName
	NewHost  transport.NodeID
}

type joinGroupResp struct {
	Op    uint64
	Group core.GroupID     // group joined (a child after a split), or to ask Next about
	Retry bool             // leadership moved; re-resolve and retry
	Next  transport.NodeID // not the leader: ask Group's leader
	Err   string
}

func (m joinGroupResp) replyOp() uint64        { return m.Op }
func (m joinGroupResp) replyErr() string       { return m.Err }
func (m joinGroupResp) next() transport.NodeID { return m.Next }

// --- vnode removal (dynamic leave; base-model feature (c)) ---

type leaveVnodeReq struct {
	Op    uint64
	Vnode VnodeName
	Group core.GroupID // the vnode's host fills it in
}

type leaveVnodeResp struct {
	Op    uint64
	Retry bool
	Group core.GroupID     // the vnode's group, to ask Next about
	Next  transport.NodeID // not the leader: ask Group's leader
	Err   string
}

func (m leaveVnodeResp) replyOp() uint64        { return m.Op }
func (m leaveVnodeResp) replyErr() string       { return m.Err }
func (m leaveVnodeResp) next() transport.NodeID { return m.Next }

// --- intra-group rebalancement (leader → member hosts) ---

// splitAllReq orders a host to binary-split every partition of its vnodes
// belonging to the group (§2.5's scope-wide split, data re-bucketed by the
// next hash bit).
type splitAllReq struct {
	Op       uint64
	Group    core.GroupID
	NewLevel uint8
}

// transferReq orders the host of From to hand one partition (its choice,
// per §2.5 step 4a) to vnode To hosted at ToHost.
type transferReq struct {
	Op     uint64
	Group  core.GroupID
	From   VnodeName
	To     VnodeName
	ToHost transport.NodeID
	Level  uint8
}

type transferResp struct {
	Op        uint64
	Partition hashspace.Partition
	Keys      int
	Err       string
}

func (m transferResp) replyOp() uint64  { return m.Op }
func (m transferResp) replyErr() string { return m.Err }

// shipVnodeReq orders the host of a leaving vnode to drop it, once the
// leader's transfers have moved every partition away.
type shipVnodeReq struct {
	Op    uint64
	Vnode VnodeName
}

// Partition contents travel by a replica sync (replSyncReq) and a commit
// carrying the delta (migCommitReq) — see migrate.go.

// --- group management ---

// groupInit hands a freshly created (child) group's authoritative state to
// its leader after a group split (§3.7).
type groupInit struct {
	Op    uint64
	State lpdrState
}

// lpdrSyncMsg is the fire-and-forget replica refresh every member host (and
// the join initiator) receives once a balancement event completes — the
// paper's "all copies of the LPDR become synchronized" (§3.6).
type lpdrSyncMsg struct {
	State     lpdrState
	Dissolved []core.GroupID // parent groups dropped by a split
}

// bootstrapInfo seeds an snode's fallback route: the first vnode of the DHT
// (or a current owner), from which every custody chain is reachable.
type bootstrapInfo struct {
	Owner ownerRef
}

// routeEntry is one custody pointer: the partition as it was when it left
// its host, and where it went.  Entries learned from batch responses also
// carry the owner's route epoch when it built the entry (0 elsewhere).
type routeEntry struct {
	Partition hashspace.Partition
	Ref       ownerRef
	Epoch     uint64
}

// snodeLeavingMsg announces an snode departure.  Survivors drop every
// forwarding pointer aimed at the leaver and adopt the leaver's own
// custody table, so every routing chain that used to pass through the
// leaver now skips it.  Crashed marks an abrupt death (KillSnode or the
// liveness detector) rather than a graceful leave: the data died with the
// snode, and survivors backing its partitions as replicas start the
// failover election (failover.go).
type snodeLeavingMsg struct {
	Leaving transport.NodeID
	Routes  []routeEntry
	Crashed bool
}

// snodeRecoveredMsg announces an snode restarted from its write-ahead
// log (Cluster.RestartSnode): the crash pruned every custody pointer at
// it, so it re-announces the partitions it recovered and survivors adopt
// pointers back to the recovered owner.
type snodeRecoveredMsg struct {
	Recovered transport.NodeID
	Routes    []routeEntry
}

// The data plane is batched end to end: single-key operations on the
// cluster handle are one-item batches (see batch.go), so batchReq /
// batchResp are the only key/value messages on the wire.

// pingReq/pingResp let tests and clients quiesce an snode's inbox.
type pingReq struct {
	Op uint64
}

type pingResp struct {
	Op uint64
}

func (m pingResp) replyOp() uint64  { return m.Op }
func (m pingResp) replyErr() string { return "" }
