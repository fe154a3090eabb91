// Package cluster is the runtime substrate of the model: it turns the
// algorithmic local approach (package core) into a live system of *software
// nodes* — the paper's snodes (§2.1.1) — that exchange protocol messages
// over a transport fabric, store real key/value data in their partitions,
// and rebalance by actually shipping partition contents between cluster
// nodes.
//
// The architecture follows the paper §3 directly:
//
//   - every snode is an actor (goroutine + bounded fabric inbox) hosting
//     vnodes;
//   - each group of vnodes has a *leader* snode holding the authoritative
//     LPDR; balancement events within a group are serialized by its leader,
//     while different groups progress in parallel — the paper's central
//     parallelism claim — and the partition moves of one event's plan run
//     concurrently, each partition freezing only for its own final delta;
//   - vnode creation follows §3.6: draw r ∈ R_h, route a lookup to the
//     victim vnode, and ask the victim group's leader to apply package
//     balance's group planner to its LPDR — the same planner the model
//     (package core) applies — which splits a full group into two random
//     halves (§3.7) or plans the §2.5 moves; a leave is planned there too;
//   - lookups and batch items route by *custody chains*: when a
//     partition leaves a host, the host keeps a tombstone pointing at the
//     new owner, and a stale host redirects its caller along it, so the
//     caller chases the chain of custody to the current owner.  This is
//     the one routing discipline: no snode passes a request on.
//
// The runtime has grown well past the paper's failure-free model (§5):
//
//   - the data plane is batched end to end (batch.go): the handle groups
//     keys by believed owner via a learned route cache and fans sub-batches
//     out in parallel, one per owner, single-key operations riding as
//     one-item batches; each sub-batch chases its own redirected items,
//     and an owner whose route epoch the handle still holds leaves the
//     routes it would re-teach out of its reply;
//   - R-way partition replication (replica.go) keeps R−1 whole replica
//     copies per partition on deterministically placed snodes, with
//     synchronous write fan-out and background anti-entropy that hands
//     a replica set off only once its new hosts are synced — an abrupt
//     snode crash with R ≥ 2 loses no acknowledged write, and the best
//     surviving copy promotes itself (failover.go); replicas serve no
//     reads, so reads, like writes, are answered by primaries only;
//   - a partition moves live (migrate.go) as a replica sync of the whole
//     bucket plus the install a failover promotion uses; the bucket keeps
//     serving reads AND writes, freezing only for the final delta
//     round-trip;
//   - an autonomous load-aware balancer (balancer.go, load.go) watches
//     per-bucket EWMA traffic rates and capacity-normalized quotas and
//     moves enrollment toward capacity-proportional targets through the
//     ordinary §3.6 join/leave machinery;
//   - every protocol message rides a binary frame codec over the TCP
//     fabric; each message's layout is one fields walk (wire.go) that
//     both encodes and decodes, and journal records (walrec.go) are
//     walked the same way;
//   - every request/response exchange goes through one endpoint
//     (endpoint.go), embedded by Snode and Cluster: a call ends with its
//     reply, its deadline, the owner stopping or its peer leaving the
//     cluster, and a response type joins in by implementing reply;
//   - crash-durable storage (durable.go, internal/wal): every local
//     mutation is journaled to a per-snode write-ahead log before ack,
//     periodic snapshots truncate the log, and a restarted snode
//     (Cluster.RestartSnode) replays snapshot + tail before serving — an
//     R=1 single-snode restart loses zero acknowledged writes;
//   - a mutation is a record (walrec.go) — tag, fields walk, applyLocked
//     — and a snapshot is a file of the same records, so the live
//     handler, snapshot replay and log replay all change state through
//     that one applyLocked.
//
// See docs/ARCHITECTURE.md for the layer map and lifecycle walkthroughs,
// and docs/WIRE.md for the wire protocol and journal record formats.
package cluster
