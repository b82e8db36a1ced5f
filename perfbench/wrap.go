package main

import (
	"context"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"ooc/internal/msgnet"
	"ooc/internal/raft"
)

// tally collects one wrapper's call durations. Each wrapper instance
// owns one, so the mutex is contended only by concurrent callers of that
// instance and by the window reset and read-out.
type tally struct {
	mu sync.Mutex
	n  int64
	d  []time.Duration
}

// tallyKeep caps the durations one tally keeps; calls past it are
// counted only.
const tallyKeep = 1 << 16

func (t *tally) observe(d time.Duration) {
	t.mu.Lock()
	t.n++
	if len(t.d) < tallyKeep {
		t.d = append(t.d, d)
	}
	t.mu.Unlock()
}

func (t *tally) reset() {
	t.mu.Lock()
	t.n, t.d = 0, t.d[:0]
	t.mu.Unlock()
}

// merge sums the calls of ts and returns them with their kept
// durations, sorted.
func merge(ts []*tally) (int64, []time.Duration) {
	var n int64
	var all []time.Duration
	for _, t := range ts {
		t.mu.Lock()
		n += t.n
		all = append(all, t.d...)
		t.mu.Unlock()
	}
	slices.Sort(all)
	return n, all
}

// netTap wraps one node's transport below its mux. When cut is set it
// cuts a node off: while cut holds a node id, every message between that
// node and another is dropped on receipt, in both directions. In the
// traced run it also counts the messages handed to the network and times
// each Send and Broadcast.
type netTap struct {
	msgnet.Endpoint
	cut  *atomic.Int32
	send *tally
	msgs *atomic.Int64
}

func (t *netTap) Send(to int, payload any) error {
	if t.send == nil {
		return t.Endpoint.Send(to, payload)
	}
	start := time.Now()
	err := t.Endpoint.Send(to, payload)
	t.send.observe(time.Since(start))
	if to != t.ID() {
		t.msgs.Add(1)
	}
	return err
}

func (t *netTap) Broadcast(payload any) error {
	if t.send == nil {
		return t.Endpoint.Broadcast(payload)
	}
	start := time.Now()
	err := t.Endpoint.Broadcast(payload)
	t.send.observe(time.Since(start))
	t.msgs.Add(int64(t.N() - 1))
	return err
}

func (t *netTap) Recv(ctx context.Context) (msgnet.Message, error) {
	for {
		m, err := t.Endpoint.Recv(ctx)
		if err != nil || t.cut == nil || m.From == t.ID() {
			return m, err
		}
		if cut := int(t.cut.Load()); cut != t.ID() && cut != m.From {
			return m, nil
		}
	}
}

// timedStorage times every durable write of one replica's FileStorage;
// each is one buffer flush plus the barrier that covers it. Embedding
// the concrete store forwards SetSyncer and LastBarrierWidth, which the
// raft layer finds by type assertion, so the wrapped replica still joins
// its node's SyncCoalescer.
type timedStorage struct {
	*raft.FileStorage
	flush *tally
}

func (s *timedStorage) SetState(term, votedFor int) error {
	start := time.Now()
	err := s.FileStorage.SetState(term, votedFor)
	s.flush.observe(time.Since(start))
	return err
}

func (s *timedStorage) TruncateAndAppend(prevIndex int, entries []raft.Entry) error {
	start := time.Now()
	err := s.FileStorage.TruncateAndAppend(prevIndex, entries)
	s.flush.observe(time.Since(start))
	return err
}

func (s *timedStorage) AppendBatch(muts []raft.LogMutation) error {
	if len(muts) == 0 {
		return s.FileStorage.AppendBatch(muts)
	}
	start := time.Now()
	err := s.FileStorage.AppendBatch(muts)
	s.flush.observe(time.Since(start))
	return err
}

func (s *timedStorage) SaveSnapshot(index, term int, data []byte) error {
	start := time.Now()
	err := s.FileStorage.SaveSnapshot(index, term, data)
	s.flush.observe(time.Since(start))
	return err
}

// timedKV times each Apply of one replica's KVStore. Embedding forwards
// Get, so the wrapped replica still serves raft.KVGetter reads.
type timedKV struct {
	*raft.KVStore
	apply *tally
}

func (s *timedKV) Apply(index int, command any) {
	start := time.Now()
	s.KVStore.Apply(index, command)
	s.apply.observe(time.Since(start))
}

var (
	_ raft.Storage                                = (*timedStorage)(nil)
	_ interface{ SetSyncer(*raft.SyncCoalescer) } = (*timedStorage)(nil)
	_ interface{ LastBarrierWidth() int }         = (*timedStorage)(nil)
	_ raft.KVGetter                               = (*timedKV)(nil)
)
