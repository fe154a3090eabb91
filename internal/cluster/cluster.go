package cluster

import (
	"fmt"
	"log/slog"
	"math"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"dbdht/internal/cluster/transport"
	"dbdht/internal/core"
	"dbdht/internal/hashspace"
	"dbdht/internal/metrics"
	"dbdht/internal/wal"
)

// clientID is the fabric endpoint the Cluster handle itself occupies.
const clientID transport.NodeID = -1

// Cluster is the client handle to a running DHT cluster: it manages snode
// membership and enrollment and offers the key/value data plane.  It is
// safe for concurrent use; operations on different groups proceed in
// parallel inside the cluster (§3.1).
type Cluster struct {
	endpoint // the handle's own fabric address (clientID) and its calls to snodes
	cfg      Config

	mu           sync.Mutex
	snodes       map[transport.NodeID]*Snode  // guarded by mu
	order        []transport.NodeID           // guarded by mu
	caps         map[transport.NodeID]float64 // guarded by mu; per-snode capacity weights
	deadCaps     map[transport.NodeID]float64 // guarded by mu; weights of crashed snodes, for RestartSnode
	nextID       transport.NodeID             // guarded by mu
	viewEpoch    uint64                       // guarded by mu
	bootstrapped bool                         // guarded by mu
	firstOwner   ownerRef                     // guarded by mu
	rng          *rand.Rand                   // guarded by mu

	// Autonomous balancer state (see balancer.go).
	balMu     sync.Mutex // serializes balance rounds
	balRounds atomic.Int64
	balMoves  atomic.Int64
	balSigma  atomic.Uint64 // float64 bits of the last round's deviation

	// subFails counts batch sub-requests that failed with a transport or
	// RPC error — the handle-side cost of stale routes (tests assert a
	// graceful departure leaves none behind).
	subFails atomic.Int64

	// failoverDetects counts snodes the liveness detector (failoverLoop)
	// declared crashed after missing consecutive pings.
	failoverDetects atomic.Int64

	// Owner-route cache learned from batch responses: batches aim straight
	// at believed owners instead of random entry snodes.
	routeMu   sync.Mutex
	routes    map[hashspace.Partition]route // guarded by routeMu
	routeLvls hashspace.LevelSet            // guarded by routeMu

	retiredMu  sync.Mutex
	retired    StatsSnapshot     // guarded by retiredMu; counters of snodes that left the cluster
	retiredWal wal.StatsSnapshot // guarded by retiredMu; durability counters of snodes that left
	retiredLat LatencySnapshot   // guarded by retiredMu; latency histograms of snodes that left

	// Observability at the handle: the head sampler for client operations,
	// the client-side span ring, the batch sub-RPC latency histogram, the
	// slow-op threshold and the structured logger (trace.go).
	sampler  sampler
	tracer   *tracer
	batchRPC *metrics.Histogram
	slowOp   time.Duration
	log      *slog.Logger

	stopOnce sync.Once
}

// foldStats accumulates a departing snode's counters so cluster-wide totals
// are monotonic across membership changes.
func foldStats(a *StatsSnapshot, b StatsSnapshot) {
	a.MsgsIn += b.MsgsIn
	a.Forwards += b.Forwards
	a.PartitionsSent += b.PartitionsSent
	a.KeysMoved += b.KeysMoved
	a.SplitAlls += b.SplitAlls
	a.GroupSplits += b.GroupSplits
	a.JoinsLed += b.JoinsLed
	a.LeavesLed += b.LeavesLed
	a.DataOps += b.DataOps
	a.Requeues += b.Requeues
	a.Batches += b.Batches
	a.ReplWrites += b.ReplWrites
	a.ReplRepairs += b.ReplRepairs
	a.ReplLagged += b.ReplLagged
	a.AEProbeMsgs += b.AEProbeMsgs
	a.AEKeysHashed += b.AEKeysHashed
	a.ChunksSent += b.ChunksSent
	a.MigAborts += b.MigAborts
	a.FreezeTimeouts += b.FreezeTimeouts
	a.Elections += b.Elections
	a.Promotions += b.Promotions
}

// New starts an empty cluster over the given fabric (use transport.NewMem()
// for simulations, transport.NewTCP for a real network).
func New(cfg Config, net transport.Network) (*Cluster, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	if cfg.Faults != nil {
		net.SetFaults(cfg.Faults)
	}
	inbox, err := net.Register(clientID)
	if err != nil {
		return nil, err
	}
	c := &Cluster{
		endpoint: newEndpoint(clientID, net, cfg.RPCTimeout),
		cfg:      cfg,
		snodes:   make(map[transport.NodeID]*Snode),
		caps:     make(map[transport.NodeID]float64),
		deadCaps: make(map[transport.NodeID]float64),
		nextID:   1,
		rng:      rand.New(rand.NewSource(cfg.Seed ^ 0x5DEECE66D)),
		routes:   make(map[hashspace.Partition]route),
		tracer:   newTracer(cfg.TraceBuffer),
		batchRPC: metrics.NewLatencyHistogram(),
		slowOp:   cfg.SlowOpThreshold,
		log:      cfg.Logger.With("component", "cluster"),
	}
	c.sampler.setRate(cfg.TraceSample)
	go c.loop(inbox)
	if cfg.Balance.Interval > 0 {
		go c.balancerLoop()
	}
	if cfg.FailoverPingInterval > 0 {
		go c.failoverLoop()
	}
	return c, nil
}

// loop routes responses to waiting client calls.  It ends when the fabric
// closes the handle's inbox (Close), and stops the handle's endpoint with
// it: nothing can answer a call any more.
func (c *Cluster) loop(inbox <-chan transport.Envelope) {
	defer close(c.stopCh)
	for env := range inbox {
		switch m := env.Msg.(type) {
		case reply:
			c.deliver(m)
		case snodeRecoveredMsg:
			// A promoted (failover.go) or restarted primary re-announced
			// custody of its partitions: fold the fresh owner pointers into
			// the route cache so the next batch aims straight at the new
			// primary instead of re-resolving through an entry snode.
			c.learnRoutes(m.Routes)
		}
	}
}

// AddSnode joins a fresh snode of unit capacity to the cluster and
// returns its id.
func (c *Cluster) AddSnode() (transport.NodeID, error) {
	return c.AddSnodeWithCapacity(1)
}

// validCapacity rejects non-positive, NaN and infinite weights — the
// same domain balance.WeightedTargets demands, enforced at the entry
// points so a bad weight cannot wedge the balancer's rounds later.
func validCapacity(w float64) bool {
	return w > 0 && !math.IsInf(w, 0) // NaN fails w > 0
}

// AddSnodeWithCapacity joins a fresh snode with the given capacity weight
// (base-model feature (a): heterogeneous nodes).  The autonomous balancer
// aims each snode's share of the hash space at weight/Σweights.
func (c *Cluster) AddSnodeWithCapacity(weight float64) (transport.NodeID, error) {
	if !validCapacity(weight) {
		return 0, fmt.Errorf("cluster: capacity weight must be a positive finite number, got %v", weight)
	}
	c.mu.Lock()
	id := c.nextID
	c.nextID++
	cfg := c.cfg
	cfg.Seed = c.cfg.Seed ^ int64(id)<<17
	boot := c.firstOwner
	haveBoot := c.bootstrapped
	c.mu.Unlock()
	s, err := newSnode(id, cfg, c.net)
	if err != nil {
		return 0, err
	}
	c.mu.Lock()
	c.snodes[id] = s
	c.order = append(c.order, id)
	c.caps[id] = weight
	c.mu.Unlock()
	if haveBoot {
		c.send(id, untraced, bootstrapInfo{Owner: boot})
	}
	c.broadcastView()
	// With durability on, a fresh data directory may not be fresh at all:
	// a dhtd rebooted over its -data-dir re-adds snodes that recover their
	// vnodes from disk, and the handle adopts the recovered DHT instead of
	// bootstrapping a new one over it.
	if !haveBoot && cfg.Durability.Dir != "" && s.recoveredVnodes() {
		c.adoptRecovered(s)
	}
	return id, nil
}

// adoptRecovered makes a recovered snode's DHT the handle's own: the
// bootstrap flag flips, the fallback route aims at a recovered vnode,
// and every snode (the recovered one included) learns it.
func (c *Cluster) adoptRecovered(s *Snode) {
	hosted := s.hostedVnodes()
	if len(hosted) == 0 {
		return
	}
	owner := ownerRef{Vnode: hosted[0], Host: s.ID()}
	c.mu.Lock()
	if c.bootstrapped {
		c.mu.Unlock()
		return
	}
	c.bootstrapped = true
	c.firstOwner = owner
	ids := append([]transport.NodeID(nil), c.order...)
	c.mu.Unlock()
	for _, id := range ids {
		c.send(id, untraced, bootstrapInfo{Owner: owner})
	}
}

// broadcastView refreshes every snode's sorted membership view — the
// basis of replica placement.  The epoch is taken under the same lock as
// the membership snapshot, so concurrent membership changes cannot make
// an older view overwrite a newer one at a receiver.
func (c *Cluster) broadcastView() {
	c.mu.Lock()
	ids := append([]transport.NodeID(nil), c.order...)
	c.viewEpoch++
	epoch := c.viewEpoch
	c.mu.Unlock()
	view := append([]transport.NodeID(nil), ids...)
	sort.Slice(view, func(i, j int) bool { return view[i] < view[j] })
	for _, id := range ids {
		c.send(id, untraced, viewUpdate{Epoch: epoch, Snodes: view})
	}
}

// ReplicationFactor returns R, the configured number of copies per
// partition (1 = replication off).
func (c *Cluster) ReplicationFactor() int { return c.cfg.Replicas }

// SetCapacity re-weights a live snode; the balancer's next round adjusts
// enrollment toward the new target.
func (c *Cluster) SetCapacity(id transport.NodeID, weight float64) error {
	if !validCapacity(weight) {
		return fmt.Errorf("cluster: capacity weight must be a positive finite number, got %v", weight)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.snodes[id]; !ok {
		return fmt.Errorf("cluster: snode %d not in cluster", id)
	}
	c.caps[id] = weight
	return nil
}

// Capacities returns the per-snode capacity weights.
func (c *Cluster) Capacities() map[transport.NodeID]float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[transport.NodeID]float64, len(c.caps))
	for id, w := range c.caps {
		out[id] = w
	}
	return out
}

// Snodes returns the live snode ids in join order.
func (c *Cluster) Snodes() []transport.NodeID {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]transport.NodeID(nil), c.order...)
}

// CreateVnode asks the given snode to enroll one more vnode (§3.6) and
// returns the vnode's canonical name and the group it joined.
func (c *Cluster) CreateVnode(at transport.NodeID) (VnodeName, core.GroupID, error) {
	c.mu.Lock()
	if _, ok := c.snodes[at]; !ok {
		c.mu.Unlock()
		return VnodeName{}, core.GroupID{}, fmt.Errorf("cluster: snode %d not in cluster", at)
	}
	bootstrap := !c.bootstrapped
	if bootstrap {
		c.bootstrapped = true // optimistic; reverted on failure
	}
	c.mu.Unlock()
	resp, err := ask[createVnodeResp](&c.endpoint, at, untraced, func(op uint64) transport.WireMessage {
		return createVnodeReq{Op: op, Bootstrap: bootstrap}
	})
	if err != nil {
		if bootstrap {
			c.mu.Lock()
			c.bootstrapped = false
			c.mu.Unlock()
		}
		return VnodeName{}, core.GroupID{}, fmt.Errorf("cluster: create vnode at %d: %w", at, err)
	}
	if bootstrap {
		owner := ownerRef{Vnode: resp.Vnode, Host: at}
		c.mu.Lock()
		c.firstOwner = owner
		ids := append([]transport.NodeID(nil), c.order...)
		c.mu.Unlock()
		for _, id := range ids {
			c.send(id, untraced, bootstrapInfo{Owner: owner})
		}
	}
	return resp.Vnode, resp.Group, nil
}

// RemoveVnode dissolves one vnode (dynamic leave), reassigning its
// partitions and data within its group.
func (c *Cluster) RemoveVnode(name VnodeName) error {
	const maxRetries = 16
	for attempt := 0; attempt < maxRetries; attempt++ {
		// The vnode's host names its group and redirects to the leader.
		resp, err := chase(&c.endpoint, 0, leaveVnodeResp{Next: name.Snode}, func(op uint64, via leaveVnodeResp) transport.WireMessage {
			return leaveVnodeReq{Op: op, Vnode: name, Group: via.Group}
		})
		if err != nil {
			return fmt.Errorf("cluster: remove vnode %v: %w", name, err)
		}
		if resp.Retry {
			continue
		}
		return nil
	}
	return fmt.Errorf("cluster: remove vnode %v: retries exhausted", name)
}

// SetEnrollment adjusts how many vnodes the snode hosts — the base model's
// dynamic enrollment level (feature (b) of §1).  It returns the hosted
// count after adjustment.
func (c *Cluster) SetEnrollment(at transport.NodeID, target int) (int, error) {
	if target < 0 {
		return 0, fmt.Errorf("cluster: enrollment must be ≥ 0, got %d", target)
	}
	c.mu.Lock()
	s, ok := c.snodes[at]
	c.mu.Unlock()
	if !ok {
		return 0, fmt.Errorf("cluster: snode %d not in cluster", at)
	}
	for {
		hosted := s.hostedVnodes()
		switch {
		case len(hosted) < target:
			if _, _, err := c.CreateVnode(at); err != nil {
				return len(hosted), err
			}
		case len(hosted) > target:
			if err := c.RemoveVnode(hosted[len(hosted)-1]); err != nil {
				return len(hosted), err
			}
		default:
			return target, nil
		}
	}
}

// RemoveSnode gracefully withdraws an snode: all its vnodes leave, its led
// groups hand leadership to other members, and it disconnects.
func (c *Cluster) RemoveSnode(id transport.NodeID) error {
	c.mu.Lock()
	s, ok := c.snodes[id]
	c.mu.Unlock()
	if !ok {
		return fmt.Errorf("cluster: snode %d not in cluster", id)
	}
	for _, name := range s.hostedVnodes() {
		if err := c.RemoveVnode(name); err != nil {
			return err
		}
	}
	if err := s.relinquishLeadership(); err != nil {
		return err
	}
	return c.depart(id, false)
}

// KillSnode stops an snode abruptly — no graceful leave, no partition
// migration — simulating a crash.  Its vnodes' partitions lose their
// primary: with replication on (R ≥ 2) the surviving replica set elects
// and promotes a new primary (failover.go), which announces itself, after
// which reads and writes of those partitions resume without operator
// action; until then they fail like any request to a dead owner.  With
// R = 1 the data is lost, exactly the failure the paper's model excludes
// (§5).  Survivors drop their routing pointers at
// the dead snode and learn the shrunken membership view, so anti-entropy
// re-homes the replica sets that included it.
func (c *Cluster) KillSnode(id transport.NodeID) error {
	return c.depart(id, true)
}

// depart takes an snode out of the cluster: off the membership tables,
// out of the route cache, out of every survivor's view and routing state,
// stopped, and its counters folded into the retired totals.  A graceful
// leaver stops last, so work already sent to it drains; a crashed one
// stops first, before anyone is told — survivors must not start electing
// replacements for a primary that still serves.
func (c *Cluster) depart(id transport.NodeID, crashed bool) error {
	c.mu.Lock()
	s, ok := c.snodes[id]
	if !ok {
		c.mu.Unlock()
		return fmt.Errorf("cluster: snode %d not in cluster", id)
	}
	delete(c.snodes, id)
	if crashed {
		c.deadCaps[id] = c.caps[id] // RestartSnode restores the weight
	}
	delete(c.caps, id)
	for i, o := range c.order {
		if o == id {
			c.order = append(c.order[:i], c.order[i+1:]...)
			break
		}
	}
	survivors := append([]transport.NodeID(nil), c.order...)
	needNewBoot := c.firstOwner.Host == id
	c.mu.Unlock()
	// Proactive purge, so the first post-departure batch pays no failed
	// round-trip discovering it: every cached route at the departed snode
	// is stale, whether its partitions moved to survivors or await
	// promotion.
	c.purgeRoutesTo(id)
	// A graceful leaver bequeaths its custody table so no routing chain
	// dangles.  A crash bequeaths nothing: survivors just drop pointers at
	// the dead snode, and Crashed starts the failover election at every
	// survivor backing one of the victim's partitions as a replica.
	notice := snodeLeavingMsg{Leaving: id, Crashed: crashed}
	if crashed {
		s.crashed.Store(true) // abandon (not flush) the WAL: crashes do not get to fsync
		c.retire(s)
	} else {
		notice.Routes = s.routingTable()
	}
	c.broadcastView() // placement must stop using the departed snode
	for _, sid := range survivors {
		c.send(sid, untraced, notice)
	}
	if needNewBoot {
		c.reseedBootstrap(survivors)
	}
	if !crashed {
		c.retire(s)
	}
	return nil
}

// retire stops a departed snode, keeps its counters in the cluster-wide
// totals, and fails whatever the handle still has parked on it: nothing
// will answer now.
func (c *Cluster) retire(s *Snode) {
	c.retiredMu.Lock()
	foldStats(&c.retired, s.stats.snapshot())
	if s.dur != nil {
		c.retiredWal.Fold(s.dur.log.Stats().Snapshot())
	}
	c.retiredLat.fold(s.lat)
	c.retiredMu.Unlock()
	s.stop()
	c.failPeer(s.id)
}

// RestartSnode brings a previously crashed (or otherwise departed) snode
// back under the SAME id, recovering its state from the data directory:
// snapshot + WAL tail replay into its buckets before it rejoins the
// fabric.  Requires durability to be configured.  The restarted snode
// re-announces its owned partitions so the custody pointers the crash
// pruned grow back, and — when the whole DHT died with it (the R=1
// single-snode case) — the handle re-adopts the recovered DHT.
func (c *Cluster) RestartSnode(id transport.NodeID) error {
	if c.cfg.Durability.Dir == "" {
		return fmt.Errorf("cluster: RestartSnode requires a durability data dir")
	}
	c.mu.Lock()
	if _, live := c.snodes[id]; live {
		c.mu.Unlock()
		return fmt.Errorf("cluster: snode %d is still in the cluster", id)
	}
	cfg := c.cfg
	cfg.Seed = c.cfg.Seed ^ int64(id)<<17
	boot := c.firstOwner
	haveBoot := c.bootstrapped
	c.mu.Unlock()
	s, err := newSnode(id, cfg, c.net)
	if err != nil {
		return err
	}
	c.mu.Lock()
	c.snodes[id] = s
	c.order = append(c.order, id)
	// A crashed snode comes back with the capacity weight it had (the
	// balancer would otherwise migrate most of its recovered share away);
	// an id never seen before defaults to unit capacity.
	w := 1.0
	if prev, ok := c.deadCaps[id]; ok && prev > 0 {
		w = prev
		delete(c.deadCaps, id)
	}
	c.caps[id] = w
	if id >= c.nextID {
		c.nextID = id + 1
	}
	survivors := append([]transport.NodeID(nil), c.order...)
	c.mu.Unlock()
	c.broadcastView()
	if haveBoot {
		c.send(id, untraced, bootstrapInfo{Owner: boot})
	} else if s.recoveredVnodes() {
		c.adoptRecovered(s)
	}
	// Re-announce the recovered regions: survivors dropped every custody
	// pointer at this snode when it crashed, so without this the data it
	// recovered would be unroutable from elsewhere.
	if routes := s.ownedRoutes(); len(routes) > 0 {
		announce := snodeRecoveredMsg{Recovered: id, Routes: routes}
		for _, sid := range survivors {
			if sid != id {
				c.send(sid, untraced, announce)
			}
		}
	}
	return nil
}

// failoverLoop is the handle's liveness detector: every
// FailoverPingInterval it pings each snode, and one that misses
// FailoverPingMisses consecutive rounds is declared crashed via KillSnode
// — which fences it out of the view and starts the replica-set failover
// election, so a wedged or silently dead snode loses its partitions to
// promoted replicas without operator action.
func (c *Cluster) failoverLoop() {
	misses := make(map[transport.NodeID]int)
	t := time.NewTicker(c.cfg.FailoverPingInterval)
	defer t.Stop()
	for {
		select {
		case <-c.stopCh:
			return
		case <-t.C:
		}
		for _, id := range c.Snodes() {
			if err := c.ping(id); err == nil {
				delete(misses, id)
				continue
			}
			misses[id]++
			if misses[id] < c.cfg.FailoverPingMisses {
				continue
			}
			delete(misses, id)
			c.failoverDetects.Add(1)
			c.log.Warn("liveness detector declaring snode crashed",
				"snode", id, "misses", c.cfg.FailoverPingMisses)
			if err := c.KillSnode(id); err != nil {
				c.log.Warn("liveness detector kill failed", "snode", id, "err", err)
			}
		}
	}
}

// reseedBootstrap points every snode's fallback route at a live vnode after
// the previous bootstrap owner's host left.
func (c *Cluster) reseedBootstrap(survivors []transport.NodeID) {
	c.mu.Lock()
	var owner ownerRef
	found := false
	for _, sid := range survivors {
		if s, ok := c.snodes[sid]; ok {
			if hosted := s.hostedVnodes(); len(hosted) > 0 {
				owner = ownerRef{Vnode: hosted[0], Host: sid}
				found = true
				break
			}
		}
	}
	if !found {
		// No vnodes remain anywhere: the DHT is empty again.
		c.bootstrapped = false
		c.firstOwner = ownerRef{}
		c.mu.Unlock()
		return
	}
	c.firstOwner = owner
	c.mu.Unlock()
	for _, sid := range survivors {
		c.send(sid, untraced, bootstrapInfo{Owner: owner})
	}
}

// entry picks a random snode as the entry point for a data operation.
func (c *Cluster) entry() (transport.NodeID, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.order) == 0 {
		return 0, fmt.Errorf("cluster: no snodes")
	}
	return c.order[c.rng.Intn(len(c.order))], nil
}

// Single-key operations ride the batched data plane as one-item batches:
// they share its owner-route cache (a warmed key goes straight to its
// owner instead of through a random entry snode), its stale-route
// invalidation and retry, and — with replication on — its read failover
// to replica hosts when the owner stopped answering.

// Put stores a key/value pair.
func (c *Cluster) Put(key string, value []byte) error {
	res, err := c.MPut([]KV{{Key: key, Value: value}})
	if err != nil {
		return err
	}
	if res[0].Err != "" {
		return fmt.Errorf("cluster: put %q: %s", key, res[0].Err)
	}
	return nil
}

// Get fetches a key; found is false for absent keys.
func (c *Cluster) Get(key string) (value []byte, found bool, err error) {
	res, err := c.MGet([]string{key})
	if err != nil {
		return nil, false, err
	}
	if res[0].Err != "" {
		return nil, false, fmt.Errorf("cluster: get %q: %s", key, res[0].Err)
	}
	return res[0].Value, res[0].Found, nil
}

// Delete removes a key; found reports whether it existed.
func (c *Cluster) Delete(key string) (found bool, err error) {
	res, err := c.MDelete([]string{key})
	if err != nil {
		return false, err
	}
	if res[0].Err != "" {
		return false, fmt.Errorf("cluster: delete %q: %s", key, res[0].Err)
	}
	return res[0].Found, nil
}

// Lookup resolves the vnode responsible for a key.
func (c *Cluster) Lookup(key string) (VnodeName, error) {
	at, err := c.entry()
	if err != nil {
		return VnodeName{}, err
	}
	resp, err := c.lookupFrom(at, hashspace.HashString(key), 0)
	if err != nil {
		return VnodeName{}, fmt.Errorf("cluster: lookup %q: %w", key, err)
	}
	return resp.Owner, nil
}

// Ping round-trips every snode's inbox, draining previously queued
// fire-and-forget traffic on each (client → snode) pair.
func (c *Cluster) Ping() error {
	for _, id := range c.Snodes() {
		if err := c.ping(id); err != nil {
			return err
		}
	}
	return nil
}

// ping round-trips one snode's inbox.
func (c *Cluster) ping(id transport.NodeID) error {
	_, err := ask[pingResp](&c.endpoint, id, untraced, func(op uint64) transport.WireMessage {
		return pingReq{Op: op}
	})
	return err
}

// Close stops every snode and the fabric.
func (c *Cluster) Close() {
	c.stopOnce.Do(func() {
		for _, s := range c.liveSnodes() {
			s.stop()
		}
		c.net.Close()
	})
}

// liveSnodes copies the live snodes, in joining order, out from under
// c.mu, for callers that then talk to each without holding it.
func (c *Cluster) liveSnodes() []*Snode {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]*Snode, 0, len(c.order))
	for _, id := range c.order {
		out = append(out, c.snodes[id])
	}
	return out
}

// --- introspection (tests, examples, benches) ---

// hostedVnodes returns the names of the vnodes hosted at this snode, in
// creation order.
func (s *Snode) hostedVnodes() []VnodeName {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]VnodeName, 0, len(s.vnodes))
	for name, vs := range s.vnodes {
		if vs.joined {
			out = append(out, name)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
	return out
}

// VnodeInfo is one vnode's materialized state in a snapshot.
type VnodeInfo struct {
	Name       VnodeName
	Host       transport.NodeID
	Group      core.GroupID
	Level      uint8
	Partitions []hashspace.Partition
	Keys       int
}

// Snapshot is a cluster-wide state dump for verification and metrics.
type Snapshot struct {
	Vnodes   []VnodeInfo
	Replicas map[transport.NodeID][]lpdrState
	Leaders  map[core.GroupID]transport.NodeID
}

// Snapshot collects the materialized state of every snode.  The cluster
// should be quiescent (no in-flight operations) for a consistent picture.
func (c *Cluster) Snapshot() Snapshot {
	snap := Snapshot{
		Replicas: make(map[transport.NodeID][]lpdrState),
		Leaders:  make(map[core.GroupID]transport.NodeID),
	}
	for _, s := range c.liveSnodes() {
		s.mu.Lock()
		for name, vs := range s.vnodes {
			if !vs.joined {
				continue
			}
			info := VnodeInfo{Name: name, Host: s.id, Group: vs.group, Level: vs.level}
			for p, bk := range vs.parts {
				info.Partitions = append(info.Partitions, p)
				info.Keys += bk.keys()
			}
			sort.Slice(info.Partitions, func(i, j int) bool {
				return info.Partitions[i].Prefix < info.Partitions[j].Prefix
			})
			snap.Vnodes = append(snap.Vnodes, info)
		}
		for _, rep := range s.replicas {
			snap.Replicas[s.id] = append(snap.Replicas[s.id], *rep)
		}
		for gid := range s.led {
			snap.Leaders[gid] = s.id
		}
		s.mu.Unlock()
	}
	sort.Slice(snap.Vnodes, func(i, j int) bool { return snap.Vnodes[i].Name.Less(snap.Vnodes[j].Name) })
	return snap
}

// VnodeQuotas computes Q_v for every vnode from a snapshot, in name order.
func (snap Snapshot) VnodeQuotas() []float64 {
	out := make([]float64, len(snap.Vnodes))
	for i, v := range snap.Vnodes {
		q := 0.0
		for _, p := range v.Partitions {
			q += p.Quota()
		}
		out[i] = q
	}
	return out
}

// StatsTotal aggregates every snode's runtime counters.
func (c *Cluster) StatsTotal() StatsSnapshot {
	c.retiredMu.Lock()
	tot := c.retired
	c.retiredMu.Unlock()
	for _, s := range c.liveSnodes() {
		foldStats(&tot, s.stats.snapshot())
	}
	tot.FailoverDetects = c.failoverDetects.Load()
	return tot
}
