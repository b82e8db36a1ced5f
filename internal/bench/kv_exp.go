package bench

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"ooc/internal/metrics"
	"ooc/internal/msgnet"
	"ooc/internal/netsim"
	"ooc/internal/raft"
	"ooc/internal/rtrace"
	"ooc/internal/shard"
	"ooc/internal/sim"
	"ooc/internal/trace"
	"ooc/internal/workload"
)

// KVConfig parameterizes one closed-loop run of the replicated KV store:
// Shards independent Raft groups over Nodes processors (a single group
// is Shards: 1), driven by ClientsPerShard×Shards concurrent closed-loop
// clients routing a shared-family KVMix through the shard router for
// Duration. Client count scales with the shard count (weak scaling): the
// question E16 asks is how much more committed work the same machine
// sustains when the keyspace — and with it the leader fsync pipelines —
// is split.
type KVConfig struct {
	Nodes           int
	Shards          int
	ClientsPerShard int
	Duration        time.Duration
	Seed            uint64
	// FileStorage gives every (node, shard) replica its own on-disk log
	// in a temp dir — the fsync-bound configuration group commit exists
	// for. Otherwise every replica persists to a raft.MemStorage.
	FileStorage bool
	// FsyncFloor, when > 0, wraps each replica's store in raft.SlowDisk
	// so every durability barrier costs at least this long — pinning the
	// device term of the latency equation to a known constant instead of
	// whatever the host's disk felt like this minute. Scaling numbers
	// with a floor compare topologies; without one they compare runs.
	FsyncFloor time.Duration
	// ElectionTimeout/HeartbeatInterval override the bench defaults.
	// Slow modeled disks need a wider election timeout: every barrier
	// stalls a node's loop for the floor, and an in-window election is a
	// multi-heartbeat throughput hole that reads as a scaling loss.
	ElectionTimeout   time.Duration
	HeartbeatInterval time.Duration
	// Metrics, if non-nil, receives the cluster-level telemetry (leader
	// placement, per-shard routed ops, mux drops).
	Metrics *metrics.Registry
	// ShardMetrics, if non-nil, supplies a registry per shard for group
	// internals, passed through to shard.Config.
	ShardMetrics func(shard int) *metrics.Registry
	// Workload shape: ReadRatio > 0 mixes reads (served per shard via
	// ReadMode; raft.ReadLogCommand is the reads-as-log-commands
	// baseline) into the loop; LeaseDuration > 0 enables leader leases;
	// Keys sizes the shared keyspace (default 1024); Zipfian selects the
	// skewed distribution.
	ReadRatio     float64
	ReadMode      raft.ReadConsistency
	LeaseDuration time.Duration
	Keys          int
	Zipfian       bool
	// Tracer/Flights thread per-request tracing and flight recording
	// through the cluster (shard.Config.Tracer / shard.Config.Flights).
	// After the run, Tracer.Spans() holds the sampled timelines.
	Tracer  *rtrace.Tracer
	Flights []*rtrace.Flight
	// DeviceLatency, when > 0, models each node's *shared* storage
	// device (shard.Config.DeviceLatency → one raft.Disk per node):
	// every durability barrier from any of the node's groups pays this
	// latency, and concurrent barriers serialize. Contrast FsyncFloor,
	// which models an independent device per replica (raft.SlowDisk).
	// E18 uses DeviceLatency; E16 keeps FsyncFloor.
	DeviceLatency time.Duration
	// Recorder, when set, captures the run's protocol trace: mux-tagged
	// message events from the simulated network plus per-flush fsync
	// notes from every replica's storage (shard.Config.Recorder), the
	// input behind ooctrace's fsyncs/width channel columns.
	Recorder *trace.Recorder
}

// KVResult is one run's outcome.
type KVResult struct {
	Shards      int
	Clients     int           // total concurrent closed-loop clients
	Ops         int           // completed client ops (reads + writes)
	OpsPerSec   float64       // Ops / wall-clock elapsed
	P50         time.Duration // client-observed op latency
	P99         time.Duration
	AllocsPerOp float64 // process-wide heap allocations per op (approximate)
	// The read/write split of Ops, with the client-observed read
	// latency, and the per-path serving counts summed over every
	// replica (raft.Node.ReadStats).
	Reads, Writes                                      int
	ReadP50, ReadP99                                   time.Duration
	LeaseReads, IndexReads, StaleReads, ForwardedReads int64

	Fsyncs      int64   // total per-file fsyncs across all replicas (file storage only)
	FsyncsPerOp float64 // Fsyncs / Ops
	// Device-barrier accounting from the per-node sync coalescers (file
	// storage only). Barriers is the number of device flushes actually
	// paid across the cluster — the node-wide fsync count that
	// coalescing reduces while Fsyncs (per-file) stays put. MeanWidth is
	// how many group flushes the average barrier covered (Requests /
	// Barriers; 1.0 when nothing coalesced).
	Barriers      int64
	BarriersPerOp float64
	MeanWidth     float64
	PerShardOps   []int // completed ops attributed to each shard
	// Leader placement at window end: which node led each shard, how
	// many distinct nodes led at least one, and how many rebalance
	// campaigns the placement watcher issued.
	LeaderPlacement []int
	LeaderSpread    int
	Rebalances      int
	// KeyImbalance is the router self-check (max/mean keys per shard
	// over the workload's key table) — near 1.0 means the throughput
	// numbers measure sharding, not an accidental hot shard.
	KeyImbalance float64
}

// RunKV runs one closed-loop trial of the KV store. It is the engine
// behind experiments E14, E15, E16 and E18, their benchmarks, and
// `raftkv -bench`.
func RunKV(cfg KVConfig) (KVResult, error) {
	if cfg.Nodes <= 0 {
		cfg.Nodes = 3
	}
	if cfg.Shards <= 0 {
		cfg.Shards = 1
	}
	if cfg.ClientsPerShard <= 0 {
		cfg.ClientsPerShard = 8
	}
	if cfg.Duration <= 0 {
		cfg.Duration = 500 * time.Millisecond
	}
	if cfg.Keys <= 0 {
		cfg.Keys = 1024
	}
	if cfg.ElectionTimeout <= 0 {
		cfg.ElectionTimeout = benchElection
	}
	if cfg.HeartbeatInterval <= 0 {
		cfg.HeartbeatInterval = benchHeartbeat
	}

	nw := netsim.New(cfg.Nodes, netsim.WithSeed(cfg.Seed), netsim.WithRecorder(cfg.Recorder))
	rng := sim.NewRNG(cfg.Seed)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	eps := make([]msgnet.Endpoint, cfg.Nodes)
	for i := range eps {
		eps[i] = nw.Node(i)
	}
	var (
		filesMu sync.Mutex
		files   []*raft.FileStorage
	)
	storage := func(int, int) (raft.Storage, error) { return raft.NewMemStorage(), nil }
	if cfg.FileStorage {
		dir, err := os.MkdirTemp("", "ooc-kv-bench-*")
		if err != nil {
			return KVResult{}, err
		}
		defer func() { _ = os.RemoveAll(dir) }()
		storage = func(node, s int) (raft.Storage, error) {
			fs, err := raft.OpenFileStorage(filepath.Join(dir, fmt.Sprintf("node-%d-shard-%d.log", node, s)))
			if err != nil {
				return nil, err
			}
			if _, err := fs.Load(); err != nil {
				_ = fs.Close()
				return nil, err
			}
			filesMu.Lock()
			files = append(files, fs)
			filesMu.Unlock()
			if cfg.FsyncFloor > 0 {
				return raft.NewSlowDisk(fs, cfg.FsyncFloor), nil
			}
			return fs, nil
		}
	}
	cluster, err := shard.NewCluster(shard.Config{
		Endpoints:         eps,
		Shards:            cfg.Shards,
		RNG:               rng,
		ElectionTimeout:   cfg.ElectionTimeout,
		HeartbeatInterval: cfg.HeartbeatInterval,
		LeaseDuration:     cfg.LeaseDuration,
		ReadMode:          cfg.ReadMode,
		Tracer:            cfg.Tracer,
		Flights:           cfg.Flights,
		Storage:           storage,
		Metrics:           cfg.Metrics,
		ShardMetrics:      cfg.ShardMetrics,
		DeviceLatency:     cfg.DeviceLatency,
		Recorder:          cfg.Recorder,
	})
	if err != nil {
		return KVResult{}, err
	}
	// Files close only after every started node has fully stopped: the
	// persist workers write until their Done() fires.
	defer func() {
		cancel()
		cluster.Wait()
		filesMu.Lock()
		defer filesMu.Unlock()
		for _, fs := range files {
			_ = fs.Close()
		}
	}()
	if err := cluster.Start(ctx); err != nil {
		return KVResult{}, err
	}

	// The shared workload family: one key table and CDF across the whole
	// client grid, plus the router self-check before any number is
	// trusted.
	dist := workload.KeysUniform
	if cfg.Zipfian {
		dist = workload.KeysZipfian
	}
	fam, err := workload.NewKVMixFamily(workload.KVMixConfig{
		ReadRatio: cfg.ReadRatio, Keys: cfg.Keys, Dist: dist,
	})
	if err != nil {
		return KVResult{}, err
	}
	spread, err := fam.ShardSpread(cfg.Shards, cluster.ShardOf)
	if err != nil {
		return KVResult{}, err
	}
	// The per-shard grid: partition the shared key table by owning
	// group, preserving family rank order within each partition (so a
	// zipfian head stays a head on every shard). Each client is pinned
	// to one shard and remaps its drawn rank into that shard's
	// partition; ops still travel through the router (which must agree
	// with the pin — that's the closed loop exercising the real path).
	// Pinning matters for the measurement: randomly routed closed-loop
	// clients collide (two clients landing on one group serialize behind
	// its commit pipeline while another group idles), which reads as a
	// scaling loss that isn't the system's.
	keysByShard := make([][]string, cfg.Shards)
	rank := make(map[string]int, len(fam.Keys()))
	for i, k := range fam.Keys() {
		rank[k] = i
		s := cluster.ShardOf(k)
		keysByShard[s] = append(keysByShard[s], k)
	}
	for s, ks := range keysByShard {
		if len(ks) == 0 {
			return KVResult{}, fmt.Errorf("shard %d owns no workload keys (keyspace %d too small for %d shards)", s, cfg.Keys, cfg.Shards)
		}
	}

	// Warmup: elect every group's leader and commit one entry per group,
	// so the measured window holds only the replication path.
	warmCtx, warmCancel := context.WithTimeout(ctx, 10*time.Second)
	err = cluster.WaitForLeaders(warmCtx)
	if err == nil {
		for s := 0; s < cfg.Shards && err == nil; s++ {
			_, err = cluster.Group(s).Client.SubmitWait(warmCtx, raft.KVCommand{Op: "set", Key: "warmup", Value: "1"})
		}
	}
	warmCancel()
	if err != nil {
		return KVResult{}, fmt.Errorf("warmup: %w", err)
	}

	var startSyncs int64
	for _, fs := range files {
		startSyncs += fs.Syncs()
	}
	var startBarriers, startRequests int64
	for n := 0; n < cfg.Nodes; n++ {
		if sc := cluster.Syncer(n); sc != nil {
			startBarriers += sc.Barriers()
			startRequests += sc.Requests()
		}
	}

	clients := cfg.ClientsPerShard * cfg.Shards
	runCtx, runCancel := context.WithCancel(ctx)
	lat := make([][]time.Duration, clients)
	rlat := make([][]time.Duration, clients)
	shardOps := make([][]int, clients)
	var ms0 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	var wg sync.WaitGroup
	start := time.Now()
	timer := time.AfterFunc(cfg.Duration, runCancel)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			mix := fam.Instance(rng.Stream('m', uint64(c)))
			counts := make([]int, cfg.Shards)
			shardOps[c] = counts
			pin := c % cfg.Shards // clients 0..S-1 on shard 0..S-1, wrapping
			keys := keysByShard[pin]
			// Values carry the client id for global uniqueness; keys are
			// shared within a shard's partition.
			vprefix := fmt.Sprintf("c%d-", c)
			for {
				op := mix.Next()
				key := keys[rank[op.Key]%len(keys)]
				t0 := time.Now()
				if op.Read {
					if _, _, err := cluster.Get(runCtx, key); err != nil {
						return // window over
					}
					d := time.Since(t0)
					lat[c] = append(lat[c], d)
					rlat[c] = append(rlat[c], d)
					counts[pin]++
					continue
				}
				s, _, err := cluster.Put(runCtx, key, vprefix+op.Value)
				if err != nil {
					return // window over
				}
				lat[c] = append(lat[c], time.Since(t0))
				counts[s]++
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	timer.Stop()
	runCancel()
	var ms1 runtime.MemStats
	runtime.ReadMemStats(&ms1)

	res := KVResult{
		Shards:          cfg.Shards,
		Clients:         clients,
		PerShardOps:     make([]int, cfg.Shards),
		LeaderPlacement: cluster.LeaderPlacement(),
		LeaderSpread:    cluster.LeaderSpread(),
		Rebalances:      cluster.RebalanceNudges(),
		KeyImbalance:    workload.SpreadImbalance(spread),
	}
	var all, reads []time.Duration
	for c := range lat {
		all = append(all, lat[c]...)
		reads = append(reads, rlat[c]...)
		for s, n := range shardOps[c] {
			res.PerShardOps[s] += n
		}
	}
	res.Ops, res.Reads = len(all), len(reads)
	res.Writes = res.Ops - res.Reads
	res.OpsPerSec = float64(res.Ops) / elapsed.Seconds()
	res.P50, res.P99 = percentiles(all)
	res.ReadP50, res.ReadP99 = percentiles(reads)
	if res.Ops > 0 {
		res.AllocsPerOp = float64(ms1.Mallocs-ms0.Mallocs) / float64(res.Ops)
	}
	for s := 0; s < cfg.Shards; s++ {
		for _, nd := range cluster.Group(s).Nodes {
			lease, index, stale, fwd := nd.ReadStats()
			res.LeaseReads += lease
			res.IndexReads += index
			res.StaleReads += stale
			res.ForwardedReads += fwd
		}
	}
	// Stop the cluster before reading the sync counters so in-flight
	// persist runs are counted, not raced (the deferred cleanup re-runs
	// both calls harmlessly).
	cancel()
	cluster.Wait()
	for _, fs := range files {
		res.Fsyncs += fs.Syncs()
	}
	res.Fsyncs -= startSyncs
	var requests int64
	for n := 0; n < cfg.Nodes; n++ {
		if sc := cluster.Syncer(n); sc != nil {
			res.Barriers += sc.Barriers()
			requests += sc.Requests()
		}
	}
	res.Barriers -= startBarriers
	requests -= startRequests
	if res.Ops > 0 {
		res.FsyncsPerOp = float64(res.Fsyncs) / float64(res.Ops)
		res.BarriersPerOp = float64(res.Barriers) / float64(res.Ops)
	}
	if res.Barriers > 0 {
		res.MeanWidth = float64(requests) / float64(res.Barriers)
	}
	return res, nil
}

// percentiles sorts ds in place and returns its p50 and p99 (zero when
// empty).
func percentiles(ds []time.Duration) (p50, p99 time.Duration) {
	if len(ds) == 0 {
		return 0, 0
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	return ds[len(ds)/2], ds[len(ds)*99/100]
}

// e16FsyncFloor is the modeled device latency per durability barrier in
// E16 (a commodity-SSD-class fsync). Without it the experiment compares
// host storage moods, not topologies: on shared infrastructure a
// page-cache-fast fsync lets one un-batched client saturate the device
// from a single group (no headroom for sharding to claim), while a slow
// minute shows near-linear scaling — the same binary, 10x apart. The
// floor pins the term the architecture is designed around: one group =
// one serialized fsync queue.
const e16FsyncFloor = 2 * time.Millisecond

// RunE16 measures multi-Raft scaling end to end: the same 3-node
// machine, the keyspace hash-split across 1/2/4/8 groups, one pinned
// closed-loop client per shard, file storage with a modeled 1ms device
// latency per fsync (see e16FsyncFloor). One group's throughput is
// bounded by its single leader's serialized commit pipeline — latency
// per group-commit round, not CPU — so independent groups with leaders
// spread across nodes overlap those rounds and aggregate ops/sec climbs
// until the fsync device or the CPU saturates. speedup_vs_1shard is the
// headline column; leader_spread verifies the placement half of the
// design actually happened.
func RunE16(s Suite) (Table, error) {
	tbl := Table{
		ID:    "E16",
		Title: "Multi-Raft scaling: hash-split keyspace over independent groups, closed loop, file storage + 1ms fsync floor",
		Columns: []string{"shards", "clients", "trials", "ops", "ops_per_sec", "speedup_vs_1shard",
			"p50_ms", "p99_ms", "fsyncs_per_op", "leader_spread", "rebalances", "key_imbalance"},
	}
	shardCounts := []int{1, 2, 4, 8}
	duration := 500 * time.Millisecond
	trials := s.Trials
	if trials > 3 {
		trials = 3 // wall-clock bound, like E14/E15
	}
	if s.Quick {
		shardCounts = []int{1, 2}
		duration = 200 * time.Millisecond
		trials = 1
	}
	base := 0.0
	for _, shards := range shardCounts {
		reg := s.cellRegistry()
		shardRegs := make([]*metrics.Registry, shards)
		var shardMetrics func(int) *metrics.Registry
		if s.CollectMetrics {
			for i := range shardRegs {
				shardRegs[i] = metrics.NewRegistry()
			}
			shardMetrics = func(i int) *metrics.Registry { return shardRegs[i] }
		}
		var opsPerSec, p50, p99, fsyncsPerOp, imbalance stats
		ops, spreadMin, rebalances := 0, 0, 0
		for trial := 0; trial < trials; trial++ {
			res, err := RunKV(KVConfig{
				Nodes:           3,
				Shards:          shards,
				ClientsPerShard: 1,
				Duration:        duration,
				Seed:            s.BaseSeed + uint64(shards*10+trial),
				FileStorage:     true,
				FsyncFloor:      e16FsyncFloor,
				// ~100 modeled barriers of headroom before a follower
				// suspects its leader; keeps failover machinery out of a
				// window that measures steady-state replication.
				ElectionTimeout: 100 * time.Millisecond,
				Metrics:         reg,
				ShardMetrics:    shardMetrics,
			})
			if err != nil {
				return tbl, fmt.Errorf("E16 shards=%d: %w", shards, err)
			}
			ops += res.Ops
			opsPerSec.add(res.OpsPerSec)
			p50.add(res.P50.Seconds() * 1000)
			p99.add(res.P99.Seconds() * 1000)
			fsyncsPerOp.add(res.FsyncsPerOp)
			imbalance.add(res.KeyImbalance)
			rebalances += res.Rebalances
			if trial == 0 || res.LeaderSpread < spreadMin {
				spreadMin = res.LeaderSpread
			}
		}
		mean := opsPerSec.mean()
		if shards == 1 {
			base = mean
		}
		speedup := 0.0
		if base > 0 {
			speedup = mean / base
		}
		tbl.AddRow(shards, shards, trials, ops, mean, speedup,
			p50.mean(), p99.mean(), fsyncsPerOp.mean(), spreadMin, rebalances, imbalance.mean())
		if s.CollectMetrics {
			tbl.attachMetrics(fmt.Sprintf("shards=%d", shards), reg.Snapshot())
			for i, sreg := range shardRegs {
				tbl.attachMetrics(fmt.Sprintf("shards=%d shard=%d", shards, i), sreg.Snapshot())
			}
		}
	}
	tbl.Notes = append(tbl.Notes,
		"weak scaling: one closed-loop client pinned per shard, so per-shard offered load is constant as groups are added",
		"the 1-shard row is the un-amortized floor: a lone client gets no proposal batching, so each op pays a full group-commit round (fsyncs_per_op ≈ replicas)",
		"each (node, shard) replica persists to its own log file: S groups run S independent group-commit fsync queues",
		"every barrier pays a modeled 1ms device latency (raft.SlowDisk over FileStorage) so the scaling curve measures the topology, not the benchmark host's storage speed of the minute; real fsyncs still run and are counted underneath",
		"speedup_vs_1shard > 1 is leaders' commit pipelines overlapping; the ceiling is the modeled device, then the CPU",
		"leader_spread is the minimum over trials of distinct nodes leading ≥1 shard at window end (placement check)",
		"key_imbalance is max/mean keys per shard over the workload key table — near 1.0 rules out a hot-shard artifact",
		"E14 measures the same machine's single group under a saturating 8-client load — the batch-amortized ceiling one leader can reach")
	return tbl, nil
}

// RunE14 measures the batched-and-pipelined replication path end to end:
// committed ops/sec and client latency under a closed-loop load on one
// group, swept over storage backend and client count. The file-storage
// rows are the ones group-commit fsync amortization exists for:
// fsyncs_per_op falling well below 1 is the direct signature of batching
// at the durability barrier.
func RunE14(s Suite) (Table, error) {
	tbl := Table{
		ID:    "E14",
		Title: "Raft closed-loop throughput: proposal coalescing + group commit + pipelining",
		Columns: []string{"storage", "clients", "trials", "ops", "ops_per_sec",
			"p50_ms", "p99_ms", "fsyncs_per_op", "allocs_per_op"},
	}
	clientCounts := []int{1, 8, 32}
	duration := 500 * time.Millisecond
	trials := s.Trials
	if trials > 3 {
		trials = 3 // wall-clock bound: each trial runs a real-time window
	}
	if s.Quick {
		clientCounts = []int{8}
		duration = 200 * time.Millisecond
		trials = 1
	}
	for _, storage := range []string{"mem", "file"} {
		for _, clients := range clientCounts {
			reg := s.cellRegistry()
			var opsPerSec, p50, p99, fsyncsPerOp, allocsPerOp stats
			ops := 0
			for trial := 0; trial < trials; trial++ {
				res, err := RunKV(KVConfig{
					Nodes:           3,
					Shards:          1,
					ClientsPerShard: clients,
					Duration:        duration,
					Seed:            s.BaseSeed + uint64(clients*10+trial),
					FileStorage:     storage == "file",
					Metrics:         reg,
					ShardMetrics:    func(int) *metrics.Registry { return reg },
				})
				if err != nil {
					return tbl, fmt.Errorf("E14 %s/%d: %w", storage, clients, err)
				}
				ops += res.Ops
				opsPerSec.add(res.OpsPerSec)
				p50.add(res.P50.Seconds() * 1000)
				p99.add(res.P99.Seconds() * 1000)
				fsyncsPerOp.add(res.FsyncsPerOp)
				allocsPerOp.add(res.AllocsPerOp)
			}
			tbl.AddRow(storage, clients, trials, ops, opsPerSec.mean(),
				p50.mean(), p99.mean(), fsyncsPerOp.mean(), allocsPerOp.mean())
			if s.CollectMetrics {
				tbl.attachMetrics(fmt.Sprintf("storage=%s clients=%d", storage, clients), reg.Snapshot())
			}
		}
	}
	tbl.Notes = append(tbl.Notes,
		"closed loop: each client submits, waits for commit+apply, then submits again — ops/sec counts applied writes",
		"one shard.Cluster group over the simulated network: requests cross the shard router and the per-node mux, like every multi-shard row",
		"fsyncs_per_op < 1 on file rows is group commit working: one durability barrier covers many coalesced proposals",
		"allocs_per_op is process-wide Mallocs delta / ops, an approximation shared across nodes and clients")
	return tbl, nil
}

// e15Modes are the read paths E15 compares, baseline first.
var e15Modes = []raft.ReadConsistency{
	raft.ReadLogCommand, raft.ReadLinearizable, raft.ReadLease, raft.ReadStale,
}

// RunE15 measures the linearizable read fast path end to end: a 90/10
// read/write closed loop on file storage, swept over the serving mode.
// The log-command row is the pre-fast-path baseline (every read is a
// replicated no-mutation command, paying the fsync); the ReadIndex row
// replaces that with one piggybacked heartbeat round per coalesced
// batch; the lease row removes even that round while the lease holds;
// the stale row is the uncoordinated floor.
func RunE15(s Suite) (Table, error) {
	tbl := Table{
		ID:    "E15",
		Title: "Raft linearizable reads: log-command baseline vs ReadIndex vs lease vs stale (90/10 mix, file storage)",
		Columns: []string{"mode", "clients", "trials", "ops", "ops_per_sec",
			"read_p50_ms", "read_p99_ms", "write_p99_ms", "fsyncs_per_op",
			"lease_reads", "index_reads", "stale_reads", "forwarded"},
	}
	clients := 8
	duration := 500 * time.Millisecond
	trials := s.Trials
	if trials > 3 {
		trials = 3 // wall-clock bound, like E14
	}
	if s.Quick {
		duration = 200 * time.Millisecond
		trials = 1
	}
	for _, mode := range e15Modes {
		reg := s.cellRegistry()
		var opsPerSec, rp50, rp99, wp99, fsyncsPerOp stats
		ops := 0
		var lease, index, stale, fwd int64
		for trial := 0; trial < trials; trial++ {
			cfg := KVConfig{
				Nodes:           3,
				Shards:          1,
				ClientsPerShard: clients,
				Duration:        duration,
				Seed:            s.BaseSeed + uint64(int(mode)*10+trial),
				FileStorage:     true,
				Metrics:         reg,
				ShardMetrics:    func(int) *metrics.Registry { return reg },
				ReadRatio:       0.9,
				ReadMode:        mode,
				Keys:            256,
			}
			if mode == raft.ReadLease {
				cfg.LeaseDuration = benchElection / 2
			}
			res, err := RunKV(cfg)
			if err != nil {
				return tbl, fmt.Errorf("E15 %v: %w", mode, err)
			}
			ops += res.Ops
			opsPerSec.add(res.OpsPerSec)
			rp50.add(res.ReadP50.Seconds() * 1000)
			rp99.add(res.ReadP99.Seconds() * 1000)
			wp99.add(res.P99.Seconds() * 1000)
			fsyncsPerOp.add(res.FsyncsPerOp)
			lease += res.LeaseReads
			index += res.IndexReads
			stale += res.StaleReads
			fwd += res.ForwardedReads
		}
		tbl.AddRow(mode.String(), clients, trials, ops, opsPerSec.mean(),
			rp50.mean(), rp99.mean(), wp99.mean(), fsyncsPerOp.mean(),
			lease, index, stale, fwd)
		if s.CollectMetrics {
			tbl.attachMetrics(fmt.Sprintf("mode=%v", mode), reg.Snapshot())
		}
	}
	tbl.Notes = append(tbl.Notes,
		"90/10 read/write closed loop, 3 nodes, one shard.Cluster group, file storage — ops/sec counts completed client ops of both kinds",
		"log rows append every read to the log (fsyncs_per_op near 1); readindex rows serve reads without touching storage",
		"lease rows skip the confirmation round while the lease holds: read_p50 drops below the readindex row's",
		"the per-path columns come from raft.ReadStats and attribute each read to the mechanism that served it")
	return tbl, nil
}
