// Package dbdht is a from-scratch Go implementation of the cluster-oriented
// model for dynamically balanced Distributed Hash Tables of Rufino, Alves,
// Exposto and Pina (IPDPS 2004).  It exports:
//
//   - the paper's primary contribution, the *local approach*: the DHT's
//     vnodes are divided into groups that balance themselves independently
//     and in parallel, each around its own Local Partition Distribution
//     Record (LPDR) — see NewLocal;
//   - a cluster runtime where snodes are live actors exchanging protocol
//     messages (in-memory or TCP fabric) and storing real key/value data
//     that migrates with its partitions — see NewCluster.
//
// The *global approach* base model the paper extends (internal/global)
// and the Consistent Hashing reference it is evaluated against
// (internal/ch) are driven by the simulation harness that reproduces
// every figure of the paper's evaluation (see cmd/dhtsim and
// EXPERIMENTS.md).
//
// # Quick start
//
//	d, err := dbdht.NewLocal(dbdht.Options{Pmin: 32, Vmin: 32, Seed: 1})
//	if err != nil { ... }
//	for i := 0; i < 1024; i++ {
//		if _, _, err := d.AddVnode(); err != nil { ... }
//	}
//	fmt.Printf("σ̄(Qv) = %.2f%%\n", 100*d.QualityOfBalancement())
//
// For a live message-passing cluster with a key/value data plane, see
// NewCluster; for a real TCP fabric, see NewClusterTCP.  The cluster can
// be served over HTTP by cmd/dhtd (see internal/server for the API and
// package client for the Go client).
package dbdht

import (
	"math/rand"

	"dbdht/internal/cluster"
	"dbdht/internal/cluster/transport"
	"dbdht/internal/core"
	"dbdht/internal/hashspace"
	"dbdht/internal/wal"
)

// LocalDHT is a local-approach DHT (the paper's contribution); see
// internal/core for the full method set: AddVnode, RemoveVnode, Lookup,
// QualityOfBalancement, GroupBalancement, Groups, CheckInvariants, ...
type LocalDHT = core.DHT

// Cluster is a live message-passing DHT cluster with a key/value data
// plane; see internal/cluster for the full method set: AddSnode,
// CreateVnode, RemoveVnode, SetEnrollment, RemoveSnode, Put/Get/Delete,
// MPut/MGet/MDelete, Snapshot, StatsTotal, ...
type Cluster = cluster.Cluster

// KV is one key/value pair of a batched MPut.
type KV = cluster.KV

// BatchResult is the per-key outcome of a batched MPut/MGet/MDelete;
// batches have partial-failure semantics — check each result's Err.
type BatchResult = cluster.BatchResult

// BalanceConfig tunes the autonomous load-aware balancer (interval,
// quota-deviation threshold, per-round move budget).
type BalanceConfig = cluster.BalanceConfig

// BalanceRound is one balancer round's outcome.
type BalanceRound = cluster.BalanceRound

// BalancerStats aggregates the balancer's lifetime counters.
type BalancerStats = cluster.BalancerStats

// SnodeLoad is one snode's load report (capacity, quota, EWMA rates).
type SnodeLoad = cluster.SnodeLoad

// QuotaSigma is the balancer's convergence metric σ̄ over a load report:
// the relative stddev of the capacity-normalized per-snode quotas, the
// same function that sets BalanceRound.Sigma.
func QuotaSigma(loads []SnodeLoad) float64 { return cluster.QuotaSigma(loads) }

// DurabilityConfig configures the per-snode write-ahead log and
// snapshots (Dir, Fsync, SnapshotInterval); the zero value disables
// durability entirely.
type DurabilityConfig = cluster.DurabilityConfig

// FsyncMode is the durability class of acknowledged writes.
type FsyncMode = wal.FsyncMode

// Fsync modes for DurabilityConfig.Fsync: FsyncOff never syncs (an
// acknowledged write may die with the process), FsyncBatch group-commits
// an fsync before every ack.
const (
	FsyncOff   = wal.FsyncOff
	FsyncBatch = wal.FsyncBatch
)

// ParseFsyncMode parses "off" or "batch" (the -fsync flag).
func ParseFsyncMode(s string) (FsyncMode, error) { return wal.ParseFsyncMode(s) }

// SnodeID identifies a cluster snode on the message fabric — the id
// AddSnode returns and the unit NetFaults host sets are expressed in.
type SnodeID = transport.NodeID

// NetFaults is a nemesis fault plan for the message fabric: symmetric or
// asymmetric partitions between host sets, per-link one-way delay with
// jitter, probabilistic frame drop, and Heal — all reproducible from one
// seed.  Attach via ClusterOptions.Faults.
type NetFaults = transport.Faults

// NewNetFaults returns an empty fabric fault plan seeded for
// reproducibility.
func NewNetFaults(seed int64) *NetFaults { return transport.NewFaults(seed) }

// DiskFaults is a nemesis fault plan for the write-ahead log: slow
// fsyncs and probabilistic fsync failures, reproducible from one seed.
// Attach via DurabilityConfig.Faults.
type DiskFaults = wal.Faults

// NewDiskFaults returns an empty disk fault plan seeded for
// reproducibility.
func NewDiskFaults(seed int64) *DiskFaults { return wal.NewFaults(seed) }

// GroupID is the decentralized binary group identifier of §3.7.1.
type GroupID = core.GroupID

// VnodeID identifies a vnode in the algorithmic DHTs.
type VnodeID = core.VnodeID

// VnodeName is a cluster vnode's canonical snode_id.vnode_id name.
type VnodeName = cluster.VnodeName

// Partition is a binary-aligned subset of the hash range R_h.
type Partition = hashspace.Partition

// Options configures the algorithmic DHTs.  Pmin controls the grain of
// balancement inside a scope; Vmin controls group size (local approach
// only).  Both must be powers of two (§4.1).  Seed makes every run
// reproducible.
type Options struct {
	Pmin int
	Vmin int
	Seed int64
}

// ClusterOptions configures a live cluster; see cluster.Config for
// every field and its default.
type ClusterOptions = cluster.Config

// NewLocal returns an empty local-approach DHT.
func NewLocal(o Options) (*LocalDHT, error) {
	return core.New(core.Config{Pmin: o.Pmin, Vmin: o.Vmin}, rand.New(rand.NewSource(o.Seed)))
}

// NewCluster starts a cluster over an in-memory message fabric — the
// default for experiments and tests.
func NewCluster(o ClusterOptions) (*Cluster, error) { return cluster.New(o, transport.NewMem()) }

// NewClusterTCP starts a cluster whose snodes communicate over real TCP
// connections bound to the given host (e.g. "127.0.0.1").
func NewClusterTCP(o ClusterOptions, host string) (*Cluster, error) {
	return cluster.New(o, transport.NewTCP(host))
}
