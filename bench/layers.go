package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"dbdht"
	"dbdht/internal/cluster/transport"
	"dbdht/internal/core"
	"dbdht/internal/hashspace"
	"dbdht/internal/wal"
)

// The layer stage times public functions of single layers in this
// process, at fixed op counts (scaled by the profile), one goroutine
// unless stated.  Shapes follow the repo's Go benchmarks so the numbers
// continue BENCH_pr3–pr10: 8 snodes / 32 vnodes, batch 256, 64-byte
// values, 4096 distinct keys.
const (
	layerSnodes  = 8
	layerVnodes  = 32
	layerBatch   = 256
	layerValue   = 64
	layerKeys    = 4096
	frameItems   = 64
	benchWireTag = 0x7e59 // outside the cluster's wireTag*/walTag* space (internal/analysis/tags.lock)
)

// framePayload is the bench-owned message the codec and pipe timings use:
// a batch of key/value items like the data plane's, under its own tag.
type framePayload struct {
	Op    uint64
	Items []frameItem
}

type frameItem struct {
	Key   string
	Value []byte
}

func (m framePayload) WireTag() uint16 { return benchWireTag }

func (m framePayload) AppendWire(buf []byte) []byte {
	buf = transport.AppendUvarint(buf, m.Op)
	buf = transport.AppendUvarint(buf, uint64(len(m.Items)))
	for _, it := range m.Items {
		buf = transport.AppendString(buf, it.Key)
		buf = transport.AppendBytes(buf, it.Value)
	}
	return buf
}

func init() {
	transport.RegisterWire(benchWireTag, func(r *transport.WireReader) (any, error) {
		var m framePayload
		m.Op = r.Uvarint()
		if n := r.ArrayLen(2); n > 0 {
			m.Items = make([]frameItem, n)
			for i := range m.Items {
				m.Items[i].Key = r.String()
				m.Items[i].Value = r.Bytes()
			}
		}
		return m, r.Err()
	})
}

func newFramePayload() framePayload {
	m := framePayload{Op: 7, Items: make([]frameItem, frameItems)}
	for i := range m.Items {
		m.Items[i] = frameItem{Key: fmt.Sprintf("bench-key-%012d", i), Value: make([]byte, layerValue)}
	}
	return m
}

// scaled applies the profile's layer scale to a fixed op count.
func (p profile) scaled(n int) int { return max(1, int(float64(n)*p.LayerScale)) }

// mallocs reads the process-wide allocation counter.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// bootCluster starts an in-process cluster on either fabric and enrolls
// vnodes round-robin, as dhtd does at boot.  At the seed commit a
// CreateVnode during this sequential enrollment fails once in a few dozen
// boots ("transfer 7.1→1.2: vnode 7.1 at level 9, leader expects 10"), so
// a failed boot is torn down and tried again on a clean data dir.
func bootCluster(tcp bool, o dbdht.ClusterOptions, snodes, vnodes int) (*dbdht.Cluster, error) {
	o.Pmin, o.Vmin, o.Seed = 32, 8, 1
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		if dir := o.Durability.Dir; dir != "" {
			if err := os.RemoveAll(dir); err != nil {
				return nil, err
			}
		}
		c, err := bootClusterOnce(tcp, o, snodes, vnodes)
		if err == nil {
			return c, nil
		}
		lastErr = err
	}
	return nil, fmt.Errorf("cluster did not boot in 3 attempts: %w", lastErr)
}

func bootClusterOnce(tcp bool, o dbdht.ClusterOptions, snodes, vnodes int) (*dbdht.Cluster, error) {
	var (
		c   *dbdht.Cluster
		err error
	)
	if tcp {
		c, err = dbdht.NewClusterTCP(o, "127.0.0.1")
	} else {
		c, err = dbdht.NewCluster(o)
	}
	if err != nil {
		return nil, err
	}
	for i := 0; i < snodes; i++ {
		if _, err := c.AddSnode(); err != nil {
			c.Close()
			return nil, err
		}
	}
	ids := c.Snodes()
	for i := 0; i < vnodes; i++ {
		if _, _, err := c.CreateVnode(ids[i%len(ids)]); err != nil {
			c.Close()
			return nil, err
		}
	}
	return c, nil
}

// batchRate is one fixed-count MPut or MGet loop's outcome.
type batchRate struct {
	keysPerSec   float64
	allocsPerKey float64
	gobFrames    int64
}

// timeBatches runs n batches of layerBatch keys through MPut or MGet and
// checks every result.
func timeBatches(c *dbdht.Cluster, put bool, n int) (batchRate, error) {
	value := make([]byte, layerValue)
	items := make([]dbdht.KV, layerBatch)
	keys := make([]string, layerBatch)
	_, gobEnc0, _, gobDec0 := transport.CodecCounters()
	m0 := mallocs()
	begin := time.Now()
	for i := 0; i < n; i++ {
		for j := range items {
			keys[j] = fmt.Sprintf("bench-key-%d", (i*layerBatch+j)%layerKeys)
			items[j] = dbdht.KV{Key: keys[j], Value: value}
		}
		var (
			results []dbdht.BatchResult
			err     error
		)
		if put {
			results, err = c.MPut(items)
		} else {
			results, err = c.MGet(keys)
		}
		if err != nil {
			return batchRate{}, err
		}
		for _, r := range results {
			if !r.OK() || (!put && !r.Found) {
				return batchRate{}, fmt.Errorf("layer stage: %s failed: %s (found=%v)", r.Key, r.Err, r.Found)
			}
		}
	}
	elapsed := time.Since(begin)
	total := float64(n * layerBatch)
	_, gobEnc1, _, gobDec1 := transport.CodecCounters()
	return batchRate{
		keysPerSec:   total / elapsed.Seconds(),
		allocsPerKey: float64(mallocs()-m0) / total,
		gobFrames:    (gobEnc1 - gobEnc0) + (gobDec1 - gobDec0),
	}, nil
}

// runLayerStage measures every workload-independent per-layer metric.
// scratch is a directory it may fill and must leave empty.
func runLayerStage(p profile, scratch string) (metricSet, error) {
	out := metricSet{}
	if err := clusterLayers(p, scratch, out); err != nil {
		return nil, err
	}
	if err := transportLayers(p, out); err != nil {
		return nil, err
	}
	if err := walLayers(p, scratch, out); err != nil {
		return nil, err
	}
	if err := placementLayers(p, out); err != nil {
		return nil, err
	}
	return out, nil
}

// clusterVariant is one cluster configuration of the layer stage.
type clusterVariant struct {
	suffix     string
	tcp        bool
	replicas   int
	fsync      string // "" = no WAL
	puts, gets int    // batches at scale 1; gets 0 = MPut only
}

func clusterLayers(p profile, scratch string, out metricSet) error {
	// Tearing a TCP fabric down waits out its connections for seconds
	// without using the processor, so each close overlaps the next variant.
	var closers sync.WaitGroup
	defer closers.Wait()
	for _, v := range []clusterVariant{
		{suffix: "R1", tcp: true, replicas: 1, puts: 1200, gets: 1200},
		{suffix: "R2", tcp: true, replicas: 2, puts: 400, gets: 1200},
		{suffix: "R3", tcp: true, replicas: 3, puts: 250},
		{suffix: "R1_fsync_off", tcp: true, replicas: 1, fsync: "off", puts: 1000},
		{suffix: "R1_fsync_batch", tcp: true, replicas: 1, fsync: "batch", puts: 300},
		{suffix: "R1", tcp: false, replicas: 1, puts: 1500, gets: 1500},
	} {
		if err := clusterVariantRates(p, v, scratch, out, &closers); err != nil {
			return err
		}
	}
	// Line items: each ratio is "how many times slower", base in the name.
	rate := func(name string) float64 { return out[name].Value }
	r1 := rate("cluster.tcp_mput_keys_per_s.R1")
	out.set("cluster.repl_cost_ratio.R2", r1/rate("cluster.tcp_mput_keys_per_s.R2"), "ratio")
	out.set("cluster.repl_cost_ratio.R3", r1/rate("cluster.tcp_mput_keys_per_s.R3"), "ratio")
	out.set("wal.fsync_batch_cost_ratio", rate("cluster.tcp_mput_keys_per_s.R1_fsync_off")/rate("cluster.tcp_mput_keys_per_s.R1_fsync_batch"), "ratio")
	out.set("transport.tcp_cost_ratio.mput", rate("cluster.mem_mput_keys_per_s.R1")/r1, "ratio")
	out.set("transport.tcp_cost_ratio.mget", rate("cluster.mem_mget_keys_per_s.R1")/rate("cluster.tcp_mget_keys_per_s.R1"), "ratio")
	return nil
}

// clusterVariantRates boots one variant, measures its MPut (and MGet)
// rate, and closes it in the background, counted in closers.
func clusterVariantRates(p profile, v clusterVariant, scratch string, out metricSet, closers *sync.WaitGroup) error {
	o := dbdht.ClusterOptions{Replicas: v.replicas}
	dir := ""
	if v.fsync != "" {
		mode, err := dbdht.ParseFsyncMode(v.fsync)
		if err != nil {
			return err
		}
		dir = filepath.Join(scratch, "layer-"+v.suffix)
		o.Durability = dbdht.DurabilityConfig{Dir: dir, Fsync: mode, SnapshotInterval: -1}
	}
	c, err := bootCluster(v.tcp, o, layerSnodes, layerVnodes)
	if err != nil {
		return err
	}
	closers.Add(1)
	defer func() {
		go func() {
			defer closers.Done()
			c.Close()
			if dir != "" {
				os.RemoveAll(dir)
			}
		}()
	}()
	fabric := "mem"
	if v.tcp {
		fabric = "tcp"
	}
	if _, err := timeBatches(c, true, layerKeys/layerBatch); err != nil { // every key exists, routes are warm
		return err
	}
	put, err := timeBatches(c, true, p.scaled(v.puts))
	if err != nil {
		return err
	}
	out.set(fmt.Sprintf("cluster.%s_mput_keys_per_s.%s", fabric, v.suffix), put.keysPerSec, "keys/s")
	if v.gets == 0 {
		return nil
	}
	get, err := timeBatches(c, false, p.scaled(v.gets))
	if err != nil {
		return err
	}
	out.set(fmt.Sprintf("cluster.%s_mget_keys_per_s.%s", fabric, v.suffix), get.keysPerSec, "keys/s")
	if v.tcp && v.replicas == 1 {
		out.set("cluster.allocs_per_key.mput_tcp_R1", put.allocsPerKey, "allocs")
		out.set("cluster.allocs_per_key.mget_tcp_R1", get.allocsPerKey, "allocs")
		out.set("transport.gob_frames.dataplane", float64(put.gobFrames+get.gobFrames), "count")
	}
	return nil
}

// frameLengthPrefix is the 4-byte length that precedes a frame body
// (docs/WIRE.md); DecodeFrame takes the body.
const frameLengthPrefix = 4

func transportLayers(p profile, out metricSet) error {
	env := transport.Envelope{From: 1, To: 2, Msg: newFramePayload()}
	n := p.scaled(100_000)
	buf := make([]byte, 0, 16<<10)
	var err error
	begin := time.Now()
	for i := 0; i < n; i++ {
		if buf, err = transport.AppendFrame(buf[:0], env); err != nil {
			return err
		}
	}
	out.set("transport.frame_encode_ns", float64(time.Since(begin).Nanoseconds())/float64(n), "ns")
	body := buf[frameLengthPrefix:]
	m0 := mallocs()
	begin = time.Now()
	for i := 0; i < n; i++ {
		if _, err := transport.DecodeFrame(body); err != nil {
			return err
		}
	}
	out.set("transport.frame_decode_ns", float64(time.Since(begin).Nanoseconds())/float64(n), "ns")
	out.set("transport.frame_decode_allocs", float64(mallocs()-m0)/float64(n), "allocs")

	for _, f := range []struct {
		name string
		mk   func() transport.Network
		n    int
	}{
		{"tcp", func() transport.Network { return transport.NewTCP("127.0.0.1") }, 40_000},
		{"mem", func() transport.Network { return transport.NewMem() }, 400_000},
	} {
		rate, err := pipeRate(f.mk(), env, p.scaled(f.n))
		if err != nil {
			return fmt.Errorf("transport pipe %s: %w", f.name, err)
		}
		out.set("transport.pipe_"+f.name+"_env_per_s", rate, "env/s")
	}
	return nil
}

// pipeRate pushes n envelopes through one (From, To) pair of a fabric
// with a bounded number in flight, as BenchmarkTransportPipe does.
func pipeRate(net transport.Network, env transport.Envelope, n int) (float64, error) {
	defer net.Close()
	in, err := net.Register(env.To)
	if err != nil {
		return 0, err
	}
	if _, err := net.Register(env.From); err != nil {
		return 0, err
	}
	const window = 256 // envelopes in flight, ~1.4 MB at 64 items: an RPC fan-out's depth, well under the writer's byte budget
	var received atomic.Int64
	done := make(chan struct{})
	go func() {
		defer close(done)
		for range in {
			if received.Add(1) == int64(n) {
				return
			}
		}
	}()
	begin := time.Now()
	for i := 0; i < n; i++ {
		for int64(i)-received.Load() >= window {
			runtime.Gosched()
		}
		if err := net.Send(env); err != nil {
			return 0, err
		}
	}
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		return 0, fmt.Errorf("receiver got %d of %d envelopes", received.Load(), n)
	}
	return float64(n) / time.Since(begin).Seconds(), nil
}

func walLayers(p profile, scratch string, out metricSet) error {
	open := func(name string, mode wal.FsyncMode) (*wal.Log, string, error) {
		dir := filepath.Join(scratch, "wal-"+name)
		l, err := wal.Open(dir, wal.Options{Fsync: mode})
		return l, dir, err
	}
	payload := make([]byte, 256)

	// Buffered append cost, no sync.
	l, dir, err := open("append", wal.FsyncOff)
	if err != nil {
		return err
	}
	n := p.scaled(400_000)
	begin := time.Now()
	for i := 0; i < n; i++ {
		l.Append(payload)
	}
	out.set("wal.append_ns", float64(time.Since(begin).Nanoseconds())/float64(n), "ns")
	if err := l.Close(); err != nil {
		return err
	}
	os.RemoveAll(dir)

	// Append + group-commit wait: one writer pays a whole fsync per
	// record, two writers share them.
	for _, writers := range []int{1, 2} {
		l, dir, err := open(fmt.Sprintf("durable%d", writers), wal.FsyncBatch)
		if err != nil {
			return err
		}
		n := p.scaled(1000)
		var wg sync.WaitGroup
		var failed atomic.Bool
		begin := time.Now()
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < n; i++ {
					if !l.WaitDurable(l.Append(payload)) {
						failed.Store(true)
						return
					}
				}
			}()
		}
		wg.Wait()
		elapsed := time.Since(begin)
		st := l.Stats().Snapshot()
		if err := l.Close(); err != nil {
			return err
		}
		os.RemoveAll(dir)
		if failed.Load() {
			return fmt.Errorf("wal: log closed under the layer stage")
		}
		if writers == 1 {
			out.set("wal.append_durable_us.fsync_batch", float64(elapsed.Microseconds())/float64(n), "us")
		} else {
			out.set("wal.records_per_fsync.2writers", float64(st.Appends)/float64(max(1, st.Fsyncs)), "ratio")
		}
	}

	// Recovery read speed: write a log, reopen it, replay all of it.
	l, dir, err = open("replay", wal.FsyncOff)
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	rec := make([]byte, 1024)
	records := p.scaled(64 << 10) // 64 MB at scale 1
	for i := 0; i < records; i++ {
		l.Append(rec)
	}
	if err := l.Close(); err != nil {
		return err
	}
	var onDisk int64
	segs, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	for _, s := range segs {
		if info, err := s.Info(); err == nil {
			onDisk += info.Size()
		}
	}
	payloadBytes := float64(records * len(rec))
	begin = time.Now()
	if l, err = wal.Open(dir, wal.Options{}); err != nil {
		return err
	}
	replayed := 0
	err = l.Replay(0, func(uint64, []byte) error { replayed++; return nil })
	elapsed := time.Since(begin)
	l.Close()
	if err != nil {
		return err
	}
	if replayed != records {
		return fmt.Errorf("wal: replayed %d of %d records", replayed, records)
	}
	out.set("wal.replay_mb_per_s", payloadBytes/(1<<20)/elapsed.Seconds(), "MB/s")
	out.set("wal.bytes_per_payload_byte", float64(onDisk)/payloadBytes, "ratio")
	return nil
}

// sink keeps the placement loops' results live so the compiler cannot
// drop the calls being timed.
var sink uint64

func placementLayers(p profile, out metricSet) error {
	n := p.scaled(2_000_000)
	keys := make([]string, layerKeys)
	for i := range keys {
		keys[i] = keyName(i)
	}
	begin := time.Now()
	for i := 0; i < n; i++ {
		sink ^= uint64(hashspace.HashString(keys[i%layerKeys]))
	}
	out.set("hashspace.hash_ns", float64(time.Since(begin).Nanoseconds())/float64(n), "ns")

	// A set shaped like one snode's holdings: 512 partitions of one level.
	const level = 12
	set := hashspace.NewSet()
	rng := rand.New(rand.NewSource(1))
	var probes []hashspace.Index
	for set.Len() < 512 {
		i := hashspace.Index(rng.Uint64())
		if set.Add(hashspace.Containing(i, level)) == nil {
			probes = append(probes, i)
		}
	}
	lookups := p.scaled(100_000)
	begin = time.Now()
	for i := 0; i < lookups; i++ {
		if _, ok := set.Lookup(probes[i%len(probes)] ^ hashspace.Index(i&0xffff)); ok {
			sink++
		}
	}
	out.set("hashspace.set_lookup_ns", float64(time.Since(begin).Nanoseconds())/float64(lookups), "ns")

	// Paper fig. 4's growth: 1024 vnodes at Pmin=Vmin=32.  The scale does
	// not apply: σ̄(Qv) at 1024 vnodes is the figure being guarded.
	const vnodes = 1024
	d, err := core.New(core.Config{Pmin: 32, Vmin: 32}, rand.New(rand.NewSource(1)))
	if err != nil {
		return err
	}
	begin = time.Now()
	for i := 0; i < vnodes; i++ {
		if _, _, err := d.AddVnode(); err != nil {
			return err
		}
	}
	out.set("core.add_vnode_us", float64(time.Since(begin).Microseconds())/vnodes, "us")
	out.set("core.sigma_qv_pct.1024", 100*d.QualityOfBalancement(), "%")
	begin = time.Now()
	for i := 0; i < n; i++ {
		if v, ok := d.Lookup(probes[i%len(probes)] + hashspace.Index(i)<<20); ok {
			sink += uint64(v)
		}
	}
	out.set("core.lookup_ns", float64(time.Since(begin).Nanoseconds())/float64(n), "ns")
	return nil
}
