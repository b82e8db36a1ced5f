package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"ooc/internal/metrics"
	"ooc/internal/msgnet"
	"ooc/internal/raft"
	"ooc/internal/rtrace"
	"ooc/internal/shard"
	"ooc/internal/sim"
	"ooc/internal/transport"
)

const (
	nodes = 3
	// Warm-up: every boot ends with warmWriters closed-loop writers
	// putting warmPuts keys each, so connections, buffers and leaders'
	// first entries are in place before anything is timed.
	warmWriters = 8
	warmPuts    = 250
	bootTimeout = 10 * time.Second
)

// replicaLog is one replica's FileStorage and the memfd under it.
type replicaLog struct {
	fs   *raft.FileStorage
	file *os.File
}

// benchCluster is a booted 3-node shard.Cluster over loopback TCP.
type benchCluster struct {
	w      *workload
	cl     *shard.Cluster
	trs    []*transport.Transport
	logs   []replicaLog
	kvs    [][]*raft.KVStore // [shard][node]
	cancel context.CancelFunc
	cut    atomic.Int32 // node cut off from the others, -1 for none
	lay    *layers      // nil outside the traced run
}

// boot starts a cluster for w, waits for every shard's leader and runs
// the warm-up. With traced set, the metrics registries and the rtrace
// sampler are on and every layer sits behind a timing wrapper.
func boot(w *workload, seed uint64, traced bool) (*benchCluster, error) {
	c := &benchCluster{w: w, kvs: make([][]*raft.KVStore, w.shards)}
	c.cut.Store(-1)
	for s := range c.kvs {
		c.kvs[s] = make([]*raft.KVStore, nodes)
	}
	var reg *metrics.Registry
	var tropts []transport.Option
	if traced {
		reg = metrics.NewRegistry()
		tropts = append(tropts, transport.WithMetrics(reg))
		c.lay = &layers{reg: reg, tracer: rtrace.New(rtrace.Options{Sample: w.sample, Seed: seed, Registry: reg, Capacity: 1 << 14})}
	}
	trs, err := transport.NewLocalCluster(nodes, tropts...)
	if err != nil {
		return nil, err
	}
	c.trs = trs
	eps := make([]msgnet.Endpoint, nodes)
	for i, tr := range trs {
		eps[i] = tr
		if w.cuts || traced {
			tap := &netTap{Endpoint: tr}
			if w.cuts {
				tap.cut = &c.cut
			}
			if traced {
				tap.send = newTally(&c.lay.sends)
				tap.msgs = &c.lay.msgs
			}
			eps[i] = tap
		}
	}
	cfg := shard.Config{
		Endpoints:     eps,
		Shards:        w.shards,
		RNG:           sim.NewRNG(seed),
		DeviceLatency: w.device,
		Storage:       c.openLog,
		StateMachine:  c.newKV,
	}
	if traced {
		cfg.Metrics = reg
		cfg.ShardMetrics = func(int) *metrics.Registry { return reg }
		cfg.Tracer = c.lay.tracer
	}
	c.cl, err = shard.NewCluster(cfg)
	if err != nil {
		c.close()
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	c.cancel = cancel
	if err := c.cl.Start(ctx); err != nil {
		c.stop()
		return nil, err
	}
	wctx, wcancel := context.WithTimeout(ctx, bootTimeout)
	defer wcancel()
	err = c.cl.WaitForLeaders(wctx)
	if err == nil {
		err = c.warmUp(wctx)
	}
	if err != nil {
		c.stop()
		return nil, err
	}
	return c, nil
}

func (c *benchCluster) openLog(node, s int) (raft.Storage, error) {
	f, err := memFile(fmt.Sprintf("node%d-shard%d.log", node, s))
	if err != nil {
		return nil, err
	}
	fs, err := raft.OpenFileStorage(memPath(f))
	if err == nil {
		_, err = fs.Load()
		if err != nil {
			_ = fs.Close()
		}
	}
	if err != nil {
		_ = f.Close()
		return nil, err
	}
	c.logs = append(c.logs, replicaLog{fs: fs, file: f})
	if c.lay != nil {
		return &timedStorage{FileStorage: fs, flush: newTally(&c.lay.flushes)}, nil
	}
	return fs, nil
}

func (c *benchCluster) newKV(node, s int) raft.StateMachine {
	kv := &raft.KVStore{}
	c.kvs[s][node] = kv
	if c.lay != nil {
		return &timedKV{KVStore: kv, apply: newTally(&c.lay.applies)}
	}
	return kv
}

func (c *benchCluster) warmUp(ctx context.Context) error {
	errs := make([]error, warmWriters)
	var wg sync.WaitGroup
	for wr := 0; wr < warmWriters; wr++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < warmPuts && errs[wr] == nil; i++ {
				_, _, errs[wr] = c.cl.Put(ctx, fmt.Sprintf("warm%d-%03d", wr, i), value(1))
			}
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}
	return nil
}

// leader returns the node leading shard s in the highest term, or -1.
func (c *benchCluster) leader(s int) int {
	best, term := -1, -1
	for id, nd := range c.cl.Group(s).Nodes {
		if st := nd.Status(); st.State == raft.Leader && st.Term > term {
			best, term = id, st.Term
		}
	}
	return best
}

// quiesce waits until every replica has applied everything its shard
// committed, so that the replicas' states can be compared.
func (c *benchCluster) quiesce(ctx context.Context) error {
	for s := 0; s < c.cl.NumShards(); s++ {
		g := c.cl.Group(s)
		for {
			commit, applied := 0, -1
			for _, nd := range g.Nodes {
				st := nd.Status()
				commit = max(commit, st.CommitIndex)
				if applied < 0 || st.LastApplied < applied {
					applied = st.LastApplied
				}
			}
			if applied >= commit {
				break
			}
			select {
			case <-ctx.Done():
				return fmt.Errorf("shard %d: replicas did not catch up (applied %d of %d): %w", s, applied, commit, ctx.Err())
			case <-time.After(time.Millisecond):
			}
		}
	}
	return nil
}

// stop shuts the cluster down and releases every socket and log.
func (c *benchCluster) stop() {
	c.cancel()
	c.cl.Wait()
	c.close()
}

func (c *benchCluster) close() {
	for _, l := range c.logs {
		_ = l.fs.Close()
		_ = l.file.Close()
	}
	for _, tr := range c.trs {
		_ = tr.Close()
	}
}

// checkReplicas compares every replica's KV state with its shard's
// node-0 replica. Call after quiesce.
func (c *benchCluster) checkReplicas() error {
	for s, kvs := range c.kvs {
		want := kvs[0].Snapshot()
		for node := 1; node < len(kvs); node++ {
			if got := kvs[node].Snapshot(); !slices.Equal(got, want) {
				return fmt.Errorf("shard %d: node %d holds %d keys that differ from node 0's %d", s, node, len(got), len(want))
			}
		}
	}
	return nil
}

// get reads key from node 0's replica of its shard.
func (c *benchCluster) get(key string) (string, bool) {
	return c.kvs[c.cl.ShardOf(key)][0].Get(key)
}
