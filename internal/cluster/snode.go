package cluster

import (
	"fmt"
	"log/slog"
	"math/bits"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"dbdht/internal/api"
	"dbdht/internal/cluster/transport"
	"dbdht/internal/core"
	"dbdht/internal/hashspace"
)

// Config parameterizes a cluster DHT.  Pmin and Vmin are the model's two
// parameters (§4.1); the rest tune the runtime.  A zero field takes its
// default, and withDefaults is the only place a default is written:
// callers (the dbdht facade, dhtd's flags) leave a field zero to get it.
type Config struct {
	Pmin int
	Vmin int
	// RPCTimeout bounds every internal request/response exchange
	// (default 30s — generous, because the model assumes a reliable
	// cluster network and a timeout indicates a bug, not a failure).
	RPCTimeout time.Duration
	// Seed derives each snode's own RNG.
	Seed int64
	// Replicas is R, the number of copies of every partition (primary
	// included).  1 (the default) disables replication, matching the
	// paper's failure-free model; R ≥ 2 keeps R−1 replica buckets on
	// other snodes, so an abrupt single-snode crash loses no
	// acknowledged write: a replica is promoted, and reads, served by
	// primaries only, fail until it is.
	Replicas int
	// AntiEntropyInterval paces the background replica reconciliation
	// pass (default 1s; only runs when Replicas > 1).
	AntiEntropyInterval time.Duration
	// FreezeTimeout bounds how long a batch write waits for a frozen
	// (mid-transfer) partition to settle before failing per key
	// (default 5s).
	FreezeTimeout time.Duration
	// LoadInterval paces the per-bucket EWMA load accounting the
	// balancer observes (default 500ms; see load.go).
	LoadInterval time.Duration
	// Balance configures the autonomous load-aware balancer at the
	// cluster handle (see balancer.go).  Zero value: background loop off,
	// BalanceNow still runs rounds on demand with default thresholds.
	Balance BalanceConfig
	// Durability configures the per-snode write-ahead log and snapshots
	// (see durable.go and docs/OPERATIONS.md).  Zero value: no disk I/O
	// on any path; a restarted snode comes back empty.
	Durability DurabilityConfig
	// FailoverPingInterval paces the cluster handle's liveness detector:
	// every interval each snode is pinged, and FailoverPingMisses
	// consecutive misses declare it dead and trigger automatic failover
	// (exactly as if KillSnode had been called).  0 (the default)
	// disables the detector — explicit KillSnode still fails over.
	FailoverPingInterval time.Duration
	// FailoverPingMisses is how many consecutive missed pings declare an
	// snode dead (default 3; only meaningful with FailoverPingInterval).
	FailoverPingMisses int
	// TraceSample is the head-sampling probability in [0, 1] for request
	// tracing (0, the default, disables tracing; 1 traces every
	// operation).  See trace.go.  Adjustable at runtime via
	// Cluster.SetTraceSampling.
	TraceSample float64
	// TraceBuffer is the per-snode span ring capacity (default 4096).
	TraceBuffer int
	// SlowOpThreshold, when non-zero, logs a structured breakdown of any
	// client batch operation slower than this (traced operations include
	// their full span tree).
	SlowOpThreshold time.Duration
	// Logger receives structured logs from the cluster, snodes and WALs.
	// Nil (the default) discards everything.
	Logger *slog.Logger
	// Faults optionally attaches a nemesis fault plan to the message
	// fabric (partitions, lossy or slow links); see transport.NewFaults
	// (dbdht.NewNetFaults).  New attaches it before the fabric carries
	// traffic.  Disk faults ride Durability.Faults.  Nil means a healthy
	// fabric.
	Faults *transport.Faults
}

// maxHops bounds custody chains: the asks of one chase, and of one batch
// item on its way to its owner.
const maxHops = 512

func (c Config) withDefaults() (Config, error) {
	if c.Pmin < 1 || c.Pmin&(c.Pmin-1) != 0 {
		return c, fmt.Errorf("cluster: Pmin must be a positive power of two, got %d", c.Pmin)
	}
	if c.Vmin < 1 || c.Vmin&(c.Vmin-1) != 0 {
		return c, fmt.Errorf("cluster: Vmin must be a positive power of two, got %d", c.Vmin)
	}
	for _, f := range []struct {
		name     string
		negative bool
	}{
		{"RPCTimeout", c.RPCTimeout < 0},
		{"AntiEntropyInterval", c.AntiEntropyInterval < 0},
		{"FreezeTimeout", c.FreezeTimeout < 0},
		{"LoadInterval", c.LoadInterval < 0},
		{"FailoverPingMisses", c.FailoverPingMisses < 0},
		{"TraceBuffer", c.TraceBuffer < 0},
	} {
		if f.negative {
			return c, fmt.Errorf("cluster: %s must not be negative", f.name)
		}
	}
	if !(c.TraceSample >= 0 && c.TraceSample <= 1) { // NaN fails both
		return c, fmt.Errorf("cluster: TraceSample must be in [0, 1], got %v", c.TraceSample)
	}
	if c.RPCTimeout == 0 {
		c.RPCTimeout = 30 * time.Second
	}
	if c.Replicas == 0 {
		c.Replicas = 1
	}
	if c.Replicas < 1 {
		return c, fmt.Errorf("cluster: Replicas must be ≥ 1, got %d", c.Replicas)
	}
	if c.AntiEntropyInterval == 0 {
		c.AntiEntropyInterval = time.Second
	}
	if c.FreezeTimeout == 0 {
		c.FreezeTimeout = 5 * time.Second
	}
	if c.LoadInterval == 0 {
		c.LoadInterval = 500 * time.Millisecond
	}
	if c.Balance.QuotaDeviation == 0 {
		c.Balance.QuotaDeviation = 0.15
	}
	if c.Balance.MaxMovesPerRound == 0 {
		c.Balance.MaxMovesPerRound = 2
	}
	if c.Durability.Dir != "" && c.Durability.SnapshotInterval == 0 {
		c.Durability.SnapshotInterval = 30 * time.Second
	}
	if c.FailoverPingMisses == 0 {
		c.FailoverPingMisses = 3
	}
	if c.TraceBuffer == 0 {
		c.TraceBuffer = 4096
	}
	if c.Logger == nil {
		c.Logger = slog.New(slog.DiscardHandler)
	}
	return c, nil
}

// Stats counts an snode's runtime work; fields are atomic so samplers never
// contend with the actor.
type Stats struct {
	MsgsIn         atomic.Int64
	Forwards       atomic.Int64
	PartitionsSent atomic.Int64
	KeysMoved      atomic.Int64
	SplitAlls      atomic.Int64
	GroupSplits    atomic.Int64
	JoinsLed       atomic.Int64
	LeavesLed      atomic.Int64
	DataOps        atomic.Int64
	Requeues       atomic.Int64
	Batches        atomic.Int64
	ReplWrites     atomic.Int64 // write operations applied to replica buckets
	ReplRepairs    atomic.Int64 // buckets shipped by anti-entropy repair
	ReplLagged     atomic.Int64 // replica exchanges that failed (lagging replica)
	AEProbeMsgs    atomic.Int64 // anti-entropy probe messages sent (one per replica host per pass)
	AEKeysHashed   atomic.Int64 // keys re-hashed because a whole replica bucket arrived (repair, re-homing or a move's base copy)
	ChunksSent     atomic.Int64 // base copies shipped by partition moves (one per move)
	MigAborts      atomic.Int64 // live migrations aborted (bucket back to live)
	FreezeTimeouts atomic.Int64 // writes failed because a frozen partition never settled
	Elections      atomic.Int64 // failover elections this snode decided for its copies
	Promotions     atomic.Int64 // replica buckets this snode promoted to primary
}

// StatsSnapshot is a plain-value copy of Stats, in the shape GET
// /v1/status reports it.
type StatsSnapshot = api.Stats

func (s *Stats) snapshot() StatsSnapshot {
	return StatsSnapshot{
		MsgsIn: s.MsgsIn.Load(), Forwards: s.Forwards.Load(),
		PartitionsSent: s.PartitionsSent.Load(), KeysMoved: s.KeysMoved.Load(),
		SplitAlls: s.SplitAlls.Load(), GroupSplits: s.GroupSplits.Load(),
		JoinsLed: s.JoinsLed.Load(), LeavesLed: s.LeavesLed.Load(),
		DataOps: s.DataOps.Load(), Requeues: s.Requeues.Load(),
		Batches:    s.Batches.Load(),
		ReplWrites: s.ReplWrites.Load(), ReplRepairs: s.ReplRepairs.Load(),
		ReplLagged:  s.ReplLagged.Load(),
		AEProbeMsgs: s.AEProbeMsgs.Load(), AEKeysHashed: s.AEKeysHashed.Load(),
		ChunksSent: s.ChunksSent.Load(), MigAborts: s.MigAborts.Load(),
		FreezeTimeouts: s.FreezeTimeouts.Load(),
		Elections:      s.Elections.Load(), Promotions: s.Promotions.Load(),
	}
}

// bucketState is a bucket's lifecycle phase, guarded by the bucket's own
// mutex like the data it describes.
type bucketState uint8

const (
	// bucketLive serves reads and writes.
	bucketLive bucketState = iota
	// bucketFrozen is mid-transfer: reads ok, writes requeued until the
	// transfer settles (back to live on failure, dead on success).
	bucketFrozen
	// bucketDead has been shipped away or split; a batch holding a stale
	// pointer re-classifies and chases the custody chain.
	bucketDead
)

// bucket is one partition's key/value store behind its own lock — the
// striping that lets concurrent batches for different partitions on the
// same snode proceed without contending on the snode-wide mutex.  s.mu
// guards the *maps* of buckets (ownership, custody, membership); a
// bucket's lifecycle and data belong to the bucket's mutex alone.  Where
// both are needed, s.mu is taken first.
type bucket struct {
	mu    sync.RWMutex
	state bucketState // guarded by mu
	kv    *kvStore    // guarded by mu; nil once the bucket is dead
	// ver counts write batches applied to this bucket; guarded by mu.
	// It piggybacks on the replica fan-out so replicas can rank
	// themselves by recency in a failover election.  It never goes
	// backwards: split children, a transfer's install and a promoted
	// bucket start at their source's version.
	ver uint64
	// dirty is non-nil while the bucket moves out (see migrate.go): the
	// keys written (put or deleted) since the move's claim.  Guarded by mu.
	dirty map[string]struct{}

	// Load window counters, bumped atomically on the data path and folded
	// into the EWMA rates by the snode's load ticker (load.go).
	nReads, nWrites, nBytes atomic.Int64
	rates                   loadRates // guarded by mu
}

// newBucket wraps a store (nil: a fresh empty one) as a live bucket.
func newBucket(kv *kvStore) *bucket {
	if kv == nil {
		kv = newStore(nil)
	}
	return &bucket{kv: kv}
}

// setState transitions the bucket's lifecycle state under the bucket's
// mutex.  A dead bucket lets go of its store and of any outbound
// migration's tracking.
func (b *bucket) setState(st bucketState) {
	b.mu.Lock()
	b.state = st
	if st == bucketDead {
		b.kv, b.dirty = nil, nil
	}
	b.mu.Unlock()
}

// claim marks a live bucket as moving out (migratePartition): writes
// from here on land in its dirty set, and no other transfer may pick it.
// It reports false if the bucket is not live or is already claimed.
func (b *bucket) claim() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state != bucketLive || b.dirty != nil {
		return false
	}
	b.dirty = make(map[string]struct{})
	return true
}

// claimed reports whether the bucket is moving out.
func (b *bucket) claimed() bool {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return b.dirty != nil
}

// keys returns the bucket's current key count.
func (b *bucket) keys() int {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return b.kv.len()
}

// vnodeState is one hosted vnode: its group binding, its partitions at the
// group's splitlevel, and the stored data, bucketed per partition (behind
// per-partition locks) so a transfer ships — and concurrent batches lock —
// one bucket.
type vnodeState struct {
	name   VnodeName
	group  core.GroupID
	level  uint8
	joined bool
	parts  map[hashspace.Partition]*bucket
}

// Snode is one software node (§2.1.1): an actor hosting vnodes, holding
// LPDR replicas for the groups its vnodes belong to, and — when it leads a
// group — running that group's balancement events serially while other
// groups proceed in parallel on their own leaders.
type Snode struct {
	endpoint // this snode's fabric address and its calls to peers
	cfg      Config
	inbox    <-chan transport.Envelope

	mu         sync.Mutex
	rng        *rand.Rand                                 // guarded by mu; the snode's own, seeded from Config.Seed
	vnodes     map[VnodeName]*vnodeState                  // guarded by mu
	owned      map[hashspace.Partition]ownedRef           // guarded by mu; ownership index over every hosted vnode's partitions
	ownedLvls  hashspace.LevelSet                         // guarded by mu
	nextLocal  int                                        // guarded by mu
	tombs      map[hashspace.Partition]ownerRef           // guarded by mu; custody forwarding pointers
	tombLvls   hashspace.LevelSet                         // guarded by mu
	boot       ownerRef                                   // guarded by mu
	hasBoot    bool                                       // guarded by mu
	replicas   map[core.GroupID]*lpdrState                // guarded by mu
	led        map[core.GroupID]*ledGroup                 // guarded by mu
	view       []transport.NodeID                         // guarded by mu; sorted DHT membership (replica placement)
	viewEpoch  uint64                                     // guarded by mu; highest membership epoch seen
	targets    []transport.NodeID                         // guarded by mu; replica targets of every owned partition under view (replicaHostsFor); replaced, never modified
	rparts     map[hashspace.Partition]*replicaBucket     // guarded by mu; replica buckets backed for other primaries
	placed     map[hashspace.Partition][]transport.NodeID // guarded by mu; hosts that may hold a copy of an owned partition (fanoutLocked)
	inDoubt    map[hashspace.Partition]*migIntent         // guarded by mu; unresolved journaled migration intents (recovery)
	installing map[hashspace.Partition]*kvStore           // guarded by mu; copies a move's install holds across its durable wait (installLocked)

	// routeEpoch tags the routes this snode's batch replies teach; it
	// changes whenever one of them would (bumpRouteEpochLocked).
	routeEpoch uint64 // guarded by mu

	// dur is the durability layer (nil when Config.Durability is off);
	// crashed marks an abrupt stop (KillSnode), which abandons the WAL's
	// userspace buffer instead of flushing it — simulating process death.
	dur     *durable
	crashed atomic.Bool

	stopOnce sync.Once
	done     chan struct{}

	stats Stats

	// Observability: the span ring and latency histograms (trace.go), a
	// sampler for snode-originated traces (migrations), and this snode's
	// structured logger.
	tracer  *tracer
	lat     *latencies
	sampler sampler
	log     *slog.Logger

	// Test-only crash injection points for the two-phase migration
	// protocol: when non-nil and returning an error, migratePartition
	// bails out silently right before / right after the receiver-commit
	// RPC, simulating a sender that died at the worst possible moment.
	// A hook that blocks holds its migration at that point.
	testCrashBeforeCommit func(hashspace.Partition) error
	testCrashAfterCommit  func(hashspace.Partition) error
}

// newSnode registers and starts an snode actor on the fabric.  With
// durability configured, the snode first recovers its state from
// snapshot + WAL tail — BEFORE joining the fabric, so no message ever
// observes a half-recovered store.
func newSnode(id transport.NodeID, cfg Config, net transport.Network) (*Snode, error) {
	s := &Snode{
		endpoint:   newEndpoint(id, net, cfg.RPCTimeout),
		cfg:        cfg,
		rng:        rand.New(rand.NewSource(cfg.Seed ^ int64(uint64(id)*0x9E3779B97F4A7C15))),
		vnodes:     make(map[VnodeName]*vnodeState),
		owned:      make(map[hashspace.Partition]ownedRef),
		tombs:      make(map[hashspace.Partition]ownerRef),
		replicas:   make(map[core.GroupID]*lpdrState),
		led:        make(map[core.GroupID]*ledGroup),
		rparts:     make(map[hashspace.Partition]*replicaBucket),
		placed:     make(map[hashspace.Partition][]transport.NodeID),
		inDoubt:    make(map[hashspace.Partition]*migIntent),
		installing: make(map[hashspace.Partition]*kvStore),
		done:       make(chan struct{}),
		tracer:     newTracer(cfg.TraceBuffer),
		lat:        newLatencies(),
		log:        cfg.Logger.With("snode", int(id)),

		// Never 0, the epoch a handle names when it knows none.
		routeEpoch: routeEpochs.Add(1),
	}
	s.sampler.setRate(cfg.TraceSample)
	// Recovery mutates state like any handler does, under s.mu: leadership
	// it reinstalls starts group workers that take the same lock.
	s.mu.Lock()
	if cfg.Durability.Dir != "" {
		if err := s.openDurabilityLocked(); err != nil {
			s.mu.Unlock()
			return nil, err
		}
	}
	hasInDoubt := len(s.inDoubt) > 0
	s.mu.Unlock()
	inbox, err := net.Register(id)
	if err != nil {
		if s.dur != nil {
			_ = s.dur.log.Close()
		}
		return nil, err
	}
	s.inbox = inbox
	go s.loop()
	go s.loadLoop()
	if cfg.Replicas > 1 {
		go s.antiEntropyLoop()
	}
	if hasInDoubt {
		go s.resolveIntents()
	}
	if s.dur != nil && s.dur.interval > 0 {
		go s.snapshotLoop()
	}
	return s, nil
}

// ID returns the snode's fabric endpoint id.
func (s *Snode) ID() transport.NodeID { return s.id }

// stop terminates the actor: its own waiting calls return the stopping
// error, and calls other endpoints have parked on it fail once they learn
// of the departure (failPeer).  With durability on, a graceful stop flushes and fsyncs the WAL; a
// crash-stop (KillSnode set s.crashed) abandons the userspace buffer —
// only records already handed to the OS (and, under fsync=batch, every
// acknowledged one) survive, exactly like a process dying mid-append.
func (s *Snode) stop() {
	s.stopOnce.Do(func() {
		close(s.stopCh)
		s.net.Unregister(s.id)
		<-s.done
		s.mu.Lock()
		for _, lg := range s.led {
			lg.retireLocked()
		}
		s.mu.Unlock()
		if s.dur != nil {
			if s.crashed.Load() {
				s.dur.log.Abandon()
			} else {
				_ = s.dur.log.Close()
			}
		}
	})
}

// loop is the actor: it dispatches every inbound message.  Fast handlers
// run inline; handlers that perform nested RPCs run in their own goroutine
// so the actor never blocks on the fabric.
func (s *Snode) loop() {
	defer close(s.done)
	for env := range s.inbox {
		s.stats.MsgsIn.Add(1)
		switch m := env.Msg.(type) {
		case reply:
			s.deliver(m)
		case lookupReq:
			s.handleLookup(m, env.From, env.Trace)
		case batchReq:
			go s.handleBatch(m, env.From, env.Trace)
		case createVnodeReq:
			go s.handleCreateVnode(m, env.From)
		case joinGroupReq:
			s.routeJoin(m, env.From)
		case leaveVnodeReq:
			s.routeLeave(m, env.From)
		case splitAllReq:
			go s.handleSplitAll(m, env.From)
		case transferReq:
			go s.handleTransfer(m, env.From)
		case shipVnodeReq:
			go s.handleShipVnode(m, env.From)
		case migCommitReq:
			go s.handleMigCommit(m, env.From, env.Trace)
		case loadReportReq:
			s.handleLoadReport(m, env.From)
		case groupInit:
			s.handleGroupInit(m, env.From)
		case lpdrSyncMsg:
			// Fire-and-forget, like the sync itself: a lost record only
			// costs group metadata that the next sync re-delivers.
			s.mutate(&m)
		case bootstrapInfo:
			s.mutate(&m)
		case snodeLeavingMsg:
			s.handleSnodeLeaving(m)
		case snodeRecoveredMsg:
			s.handleSnodeRecovered(m)
		case viewUpdate:
			s.handleViewUpdate(m)
		case replWriteReq:
			s.handleReplWrite(m, env.From, env.Trace)
		case replProbeReq:
			s.handleReplProbe(m, env.From)
		case replSyncReq:
			s.handleReplSync(m, env.From)
		case replDropMsg:
			s.mutate(&m)
		case promoteQueryReq:
			s.send(env.From, untraced, s.promoteCredentials(m))
		case pingReq:
			s.send(env.From, untraced, pingResp{Op: m.Op})
		}
	}
}

// ownedRef binds an owned partition to its hosting vnode and bucket — one
// entry of the snode-level ownership index behind ownsLocked.  The index
// mirrors every vs.parts map; the two are mutated together under s.mu.
type ownedRef struct {
	vs *vnodeState
	bk *bucket
}

func (s *Snode) setOwnedLocked(p hashspace.Partition, vs *vnodeState, bk *bucket) {
	if _, ok := s.owned[p]; !ok {
		s.ownedLvls.Add(p.Level)
	}
	s.owned[p] = ownedRef{vs: vs, bk: bk}
	s.bumpRouteEpochLocked()
}

// delOwnedLocked removes a partition's index entry, but only while it
// still points at the given bucket: when a partition moves between two
// vnodes on the SAME snode, the receiving vnode's install re-points the
// entry before the sender's cleanup runs, and that newer entry must
// survive.
func (s *Snode) delOwnedLocked(p hashspace.Partition, bk *bucket) {
	if ref, ok := s.owned[p]; ok && ref.bk == bk {
		delete(s.owned, p)
		s.ownedLvls.Remove(p.Level)
		s.bumpRouteEpochLocked()
	}
}

// routeEpochs is drawn from by every snode in the process, so no two
// snodes, and no two incarnations of one snode id, share an epoch value.
var routeEpochs atomic.Uint64

// bumpRouteEpochLocked moves the route epoch on after a change to what a
// batch reply would teach about this snode's partitions: their set or
// their vnodes.  Caller holds s.mu.
func (s *Snode) bumpRouteEpochLocked() { s.routeEpoch = routeEpochs.Add(1) }

// ownedForLocked returns the ownership-index entry covering hash index h,
// if any.  One index probe per live level — it runs once per batch item,
// so it must not scan the hosted vnodes.  Caller holds s.mu.
func (s *Snode) ownedForLocked(h hashspace.Index) (ownedRef, hashspace.Partition, bool) {
	for _, l := range s.ownedLvls.Desc {
		p := hashspace.Containing(h, l)
		if ref, ok := s.owned[p]; ok {
			return ref, p, true
		}
	}
	return ownedRef{}, hashspace.Partition{}, false
}

// ownsLocked returns the hosted vnode and partition owning hash index h,
// if any.  Caller holds s.mu.
func (s *Snode) ownsLocked(h hashspace.Index) (*vnodeState, hashspace.Partition, bool) {
	ref, p, ok := s.ownedForLocked(h)
	return ref.vs, p, ok
}

// forwardTargetLocked picks the next hop for hash index h — where a
// lookup or a batch item is redirected: the deepest custody tombstone
// covering h, falling back to the bootstrap owner.  Custody pointers
// advance strictly along the chain of custody, guaranteeing termination.
//
// A target pointing back at THIS snode is never returned: the caller just
// failed to classify h here under the same lock, so a self-hop cannot make
// progress — a stale self-pointer is skipped, and a self-pointing boot
// fallback means the region is orphaned (its chain died with a crashed
// snode) and the request must fail fast instead of ping-ponging through
// the fallback until maxHops.  Without this guard a single crash would
// leave every lookup of an orphaned region spinning through 512 asks of
// its caller's chase loop, and every batch item through 512 redirects,
// congesting the data plane for seconds.
func (s *Snode) forwardTargetLocked(h hashspace.Index) (ownerRef, bool) {
	if ref, ok := probeLevels(h, s.tombs, &s.tombLvls); ok && ref.Host != s.id {
		return ref, true
	}
	if s.hasBoot && s.boot.Host != s.id {
		return s.boot, true
	}
	return ownerRef{}, false
}

// noRoute is the answer of an snode that owns no part of a region and
// finds no hop towards its owner (forwardTargetLocked): an empty DHT, or
// a region whose custody chain died with a crashed snode.
func (s *Snode) noRoute() string {
	return fmt.Sprintf("no route: snode %d knows no owner for the region", s.id)
}

// probeLevels finds the deepest entry of a partition-keyed map covering h.
// It runs on every item of every batch, so it is allocation-free: one map
// lookup per live level, deepest first.
func probeLevels[V any](h hashspace.Index, m map[hashspace.Partition]V, lvls *hashspace.LevelSet) (V, bool) {
	for _, l := range lvls.Desc {
		if v, ok := m[hashspace.Containing(h, l)]; ok {
			return v, true
		}
	}
	var zero V
	return zero, false
}

// setTomb records a custody pointer, replacing any coverage at other levels
// implicitly (probes prefer deeper entries, which are newer).
func (s *Snode) setTombLocked(p hashspace.Partition, ref ownerRef) {
	if _, ok := s.tombs[p]; !ok {
		s.tombLvls.Add(p.Level)
	}
	s.tombs[p] = ref
}

func (s *Snode) delTombLocked(p hashspace.Partition) {
	if _, ok := s.tombs[p]; ok {
		delete(s.tombs, p)
		s.tombLvls.Remove(p.Level)
	}
}

// handleLookup implements §3.6's owner location, one custody hop per
// call: a non-owner redirects the caller to the next hop.  A traced lookup
// records one span per snode asked — "lookup.serve" at the owner,
// "lookup.hop" at every redirect — so a custody chain is visible end to
// end.
func (s *Snode) handleLookup(m lookupReq, from transport.NodeID, tr transport.TraceContext) {
	sp := beginSpan(tr, "lookup.serve")
	s.mu.Lock()
	if vs, p, ok := s.ownsLocked(m.R); ok {
		leader := transport.NodeID(0)
		group := vs.group
		if rep, ok := s.replicas[vs.group]; ok {
			leader = rep.Leader
		}
		s.mu.Unlock()
		s.tracer.finish(sp, s.id, "")
		s.send(from, untraced, lookupResp{
			Op: m.Op, Owner: vs.name, Host: s.id, Partition: p,
			Group: group, Leader: leader,
		})
		return
	}
	ref, ok := s.forwardTargetLocked(m.R)
	s.mu.Unlock()
	if !ok {
		s.tracer.finish(sp, s.id, "no-route")
		s.send(from, untraced, lookupResp{Op: m.Op, Err: s.noRoute()})
		return
	}
	s.stats.Forwards.Add(1)
	sp.name = "lookup.hop"
	s.tracer.finish(sp, s.id, "")
	s.send(from, untraced, lookupResp{Op: m.Op, Next: ref.Host})
}

// lookupFrom chases a lookup for hash index r from first, under timeout
// (0: the RPC timeout).
func (e *endpoint) lookupFrom(first transport.NodeID, r uint64, timeout time.Duration) (lookupResp, error) {
	return chase(e, timeout, lookupResp{Next: first}, func(op uint64, _ lookupResp) transport.WireMessage {
		return lookupReq{Op: op, R: r}
	})
}

// resolveOwner runs a lookup for hash index r from this snode.
func (s *Snode) resolveOwner(r uint64) (lookupResp, error) {
	resp, err := s.lookupFrom(s.id, r, 0)
	if err != nil {
		return lookupResp{}, fmt.Errorf("cluster: lookup: %w", err)
	}
	return resp, nil
}

type dataOp int

const (
	opGet dataOp = iota
	opPut
	opDel
)

// handleSplitAll performs the scope-wide binary split on this host's
// vnodes of the group (walSplitAllRec: every partition splits in two and
// stored keys are re-bucketed by their next hash bit).
func (s *Snode) handleSplitAll(m splitAllReq, from transport.NodeID) {
	seq := s.mutate((*walSplitAllRec)(&m))
	s.stats.SplitAlls.Add(1)
	// Best-effort wait.  A failed wait means the WAL closed or
	// fail-stopped — but the split IS applied here, so reporting an error
	// would leave the leader believing this host is at the old level while
	// its vnodes already re-bucketed.  Acked-data safety does not depend on
	// this record: every post-split write's own durability wait fails on
	// the same dead WAL and is never acknowledged.
	s.awaitDurable(seq)
	s.send(from, untraced, ackResp{Op: m.Op})
}

// handleTransfer hands one partition of the victim vnode to the new owner
// by live migration (migrate.go): the bucket keeps serving reads AND
// writes while its base ships, freezing only for the delta round-trip.
func (s *Snode) handleTransfer(m transferReq, from transport.NodeID) {
	s.mu.Lock()
	vs, ok := s.vnodes[m.From]
	if !ok {
		s.mu.Unlock()
		s.send(from, untraced, transferResp{Op: m.Op, Err: fmt.Sprintf("vnode %v not hosted at %d", m.From, s.id)})
		return
	}
	if vs.level != m.Level {
		s.mu.Unlock()
		s.send(from, untraced, transferResp{Op: m.Op, Err: fmt.Sprintf("vnode %v at level %d, leader expects %d", m.From, vs.level, m.Level)})
		return
	}
	// Pick the victim partition uniformly among the live ones not already
	// moving out.  §2.5 step 4a says "choose a victim partition"
	// without fixing the choice: all partitions in a scope have the same
	// size, so it is invisible to balancement quality, and random matches
	// the simulator.
	var candidates []hashspace.Partition
	for p, bk := range vs.parts {
		bk.mu.RLock()
		if bk.state == bucketLive && bk.dirty == nil {
			candidates = append(candidates, p)
		}
		bk.mu.RUnlock()
	}
	if len(candidates) == 0 {
		s.mu.Unlock()
		s.send(from, untraced, transferResp{Op: m.Op, Err: fmt.Sprintf("vnode %v has no transferable partition", m.From)})
		return
	}
	sort.Slice(candidates, func(i, j int) bool {
		if candidates[i].Level != candidates[j].Level {
			return candidates[i].Level < candidates[j].Level
		}
		return candidates[i].Prefix < candidates[j].Prefix
	})
	p := candidates[s.rng.Intn(len(candidates))]
	bk := vs.parts[p]
	// Claim p before s.mu goes: a concurrent transfer from this vnode
	// scans under s.mu too, so it can never pick p.
	claimed := bk.claim()
	s.mu.Unlock()
	if !claimed {
		s.send(from, untraced, transferResp{Op: m.Op, Err: fmt.Sprintf("partition %v of %v not live for migration", p, m.From)})
		return
	}

	keys, err := s.migratePartition(m.Group, m.To, m.ToHost, p, m.Level, vs, bk)
	if err != nil {
		s.send(from, untraced, transferResp{Op: m.Op, Err: err.Error()})
		return
	}
	s.send(from, untraced, transferResp{Op: m.Op, Partition: p, Keys: keys})
}

// copyBucket clones one partition's key/value map; the values are shared,
// as no stored value is ever written in place.
func copyBucket(b map[string][]byte) map[string][]byte {
	out := make(map[string][]byte, len(b))
	for k, v := range b {
		out[k] = v
	}
	return out
}

// handleShipVnode drops a leaving vnode once the leader's transfers have
// moved every partition away.
func (s *Snode) handleShipVnode(m shipVnodeReq, from transport.NodeID) {
	s.mu.Lock()
	vs, ok := s.vnodes[m.Vnode]
	empty := ok && len(vs.parts) == 0
	s.mu.Unlock()
	if !empty {
		s.send(from, untraced, ackResp{Op: m.Op, Err: fmt.Sprintf("vnode %v not hosted empty at %d", m.Vnode, s.id)})
		return
	}
	s.mutate(&walVnodeGoneRec{Name: m.Vnode})
	s.send(from, untraced, ackResp{Op: m.Op})
}

// routingTable snapshots this snode's custody pointers, to be bequeathed to
// the survivors on graceful leave.
func (s *Snode) routingTable() []routeEntry {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]routeEntry, 0, len(s.tombs))
	for p, ref := range s.tombs {
		out = append(out, routeEntry{Partition: p, Ref: ref})
	}
	return out
}

// handleSnodeLeaving repairs routing after a graceful departure: pointers
// at the leaver are dropped and the leaver's custody table is adopted, so
// chains that passed through it now skip it.  Entries we already have (our
// own custody history, or ownership) take precedence.
func (s *Snode) handleSnodeLeaving(m snodeLeavingMsg) {
	s.failPeer(m.Leaving)
	s.mu.Lock()
	for p, ref := range s.tombs {
		if ref.Host == m.Leaving {
			s.delTombLocked(p)
		}
	}
	for _, r := range m.Routes {
		if r.Ref.Host == m.Leaving {
			continue // self-referential leftovers are useless
		}
		if _, have := s.tombs[r.Partition]; !have {
			s.setTombLocked(r.Partition, r.Ref)
		}
	}
	if s.hasBoot && s.boot.Host == m.Leaving {
		s.hasBoot = false // the cluster handle re-seeds shortly after
	}
	s.mu.Unlock()
	if m.Crashed {
		go s.announce(s.ownedRoutes())
	}
	if m.Crashed && s.cfg.Replicas > 1 {
		// The snode died with its data: partitions it was primary for
		// need a replica promoted.  Every survivor holding a copy runs
		// the election for it, and only the best copy promotes itself
		// (see failover.go).
		go s.failoverScan(m.Leaving)
	}
}

// handleSnodeRecovered repairs routing after an snode restarted from its
// WAL: the crash dropped every custody pointer at it, so the recovered
// owner re-announces its partitions and survivors adopt pointers back to
// it — unless they own (part of) the region themselves at an equal or
// deeper level.
func (s *Snode) handleSnodeRecovered(m snodeRecoveredMsg) {
	s.mu.Lock()
	for _, rte := range m.Routes {
		if _, p2, ok := s.ownedForLocked(rte.Partition.Start()); ok && p2.Level >= rte.Partition.Level {
			continue
		}
		s.setTombLocked(rte.Partition, rte.Ref)
	}
	s.mu.Unlock()
}

// handleCreateVnode runs the client-facing vnode creation (§3.6).
func (s *Snode) handleCreateVnode(m createVnodeReq, from transport.NodeID) {
	s.mu.Lock()
	name := VnodeName{Snode: s.id, Local: s.nextLocal}
	s.nextLocal++
	s.mu.Unlock()

	if m.Bootstrap {
		if err := s.bootstrapFirstVnode(name); err != nil {
			s.send(from, untraced, createVnodeResp{Op: m.Op, Err: err.Error()})
			return
		}
		s.send(from, untraced, createVnodeResp{Op: m.Op, Vnode: name, Group: core.GroupID{}})
		return
	}

	// Allocate the (empty) vnode so partition installs can land.  The
	// allocation is journaled unjoined; the LPDR sync that completes the
	// join is journaled as it arrives (lpdrSyncMsg).
	s.mutate(&walVnodeRec{Name: name})

	const maxRetries = 16
	for attempt := 0; attempt < maxRetries; attempt++ {
		s.mu.Lock()
		r := s.rng.Uint64()
		s.mu.Unlock()
		lr, err := s.resolveOwner(r)
		if err != nil {
			s.abandonVnode(name)
			s.send(from, untraced, createVnodeResp{Op: m.Op, Err: err.Error()})
			return
		}
		// Ask the group's leader, as the owner knows it; a stale one
		// redirects or answers Retry.
		first := lr.Leader
		if first == 0 {
			first = lr.Host
		}
		resp, err := chase(&s.endpoint, 0, joinGroupResp{Group: lr.Group, Next: first}, func(op uint64, via joinGroupResp) transport.WireMessage {
			return joinGroupReq{Op: op, Group: via.Group, NewVnode: name, NewHost: s.id}
		})
		if err != nil {
			s.abandonVnode(name)
			s.send(from, untraced, createVnodeResp{Op: m.Op, Err: err.Error()})
			return
		}
		if resp.Retry {
			continue // leadership moved under us; re-resolve
		}
		s.send(from, untraced, createVnodeResp{Op: m.Op, Vnode: name, Group: resp.Group})
		return
	}
	s.abandonVnode(name)
	s.send(from, untraced, createVnodeResp{Op: m.Op, Err: "join retries exhausted"})
}

// abandonVnode discards a never-joined vnode allocation after a failure.
func (s *Snode) abandonVnode(name VnodeName) {
	gone := walVnodeGoneRec{Name: name}
	s.mu.Lock()
	if vs, ok := s.vnodes[name]; ok && !vs.joined && len(vs.parts) == 0 {
		gone.applyLocked(s)
		s.journal(gone.walTag(), gone.fields)
	}
	s.mu.Unlock()
}

// bootstrapFirstVnode creates group 0 around the DHT's first vnode: the
// whole of R_h pre-split into Pmin partitions (invariant G4's floor), this
// snode leading.
func (s *Snode) bootstrapFirstVnode(name VnodeName) error {
	level := uint8(bits.TrailingZeros(uint(s.cfg.Pmin)))
	// The birth of the DHT is three records — the pre-split vnode, its
	// LPDR and the boot route — so a restarted first snode comes back
	// owning R_h.
	vnode := walVnodeRec{Name: name, Level: level, Joined: true}
	for pre := uint64(0); pre < uint64(s.cfg.Pmin); pre++ {
		vnode.Parts = append(vnode.Parts, hashspace.Partition{Prefix: pre, Level: level})
	}
	lpdr := lpdrSyncMsg{State: lpdrState{
		Level: level, Leader: s.id,
		Members: []memberInfo{{Vnode: name, Host: s.id, Count: s.cfg.Pmin}},
	}}
	boot := bootstrapInfo{Owner: ownerRef{Vnode: name, Host: s.id}}
	s.mu.Lock()
	if len(s.vnodes) != 0 || len(s.led) != 0 {
		s.mu.Unlock()
		return fmt.Errorf("cluster: snode %d is not empty; cannot bootstrap", s.id)
	}
	vnode.applyLocked(s)
	lpdr.applyLocked(s)
	boot.applyLocked(s)
	s.installLeaderLocked(lpdr.State)
	s.journal(vnode.walTag(), vnode.fields)
	s.journal(lpdr.walTag(), lpdr.fields)
	seq := s.journal(boot.walTag(), boot.fields)
	s.mu.Unlock()
	if !s.awaitDurable(seq) {
		return fmt.Errorf("cluster: snode %d stopping: bootstrap not durable", s.id)
	}
	return nil
}
