package raft

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"ooc/internal/msgnet"
	"ooc/internal/sim"
)

// nopStorage persists nothing and allocates nothing, so the allocation
// gates below count only the handoff's own work.
type nopStorage struct{ batches int }

func (s *nopStorage) SetState(term, votedFor int) error                      { return nil }
func (s *nopStorage) TruncateAndAppend(prevIndex int, entries []Entry) error { return nil }
func (s *nopStorage) AppendBatch(muts []LogMutation) error                   { s.batches++; return nil }
func (s *nopStorage) SaveSnapshot(index, term int, data []byte) error        { return nil }
func (s *nopStorage) Load() (PersistentState, error)                         { return PersistentState{VotedFor: none}, nil }

// nopEndpoint drops every send and never delivers.
type nopEndpoint struct{ sends int }

func (e *nopEndpoint) ID() int                        { return 0 }
func (e *nopEndpoint) N() int                         { return 3 }
func (e *nopEndpoint) Send(to int, payload any) error { e.sends++; return nil }
func (e *nopEndpoint) Broadcast(payload any) error    { return nil }
func (e *nopEndpoint) Recv(ctx context.Context) (msgnet.Message, error) {
	<-ctx.Done()
	return msgnet.Message{}, ctx.Err()
}

func newHandoffNode(t testing.TB) (*Node, *nopStorage, *nopEndpoint) {
	st, ep := &nopStorage{}, &nopEndpoint{}
	nd, err := NewNode(Config{ID: 0, Endpoint: ep, RNG: sim.NewRNG(1), Storage: st})
	if err != nil {
		t.Fatal(err)
	}
	return nd, st, ep
}

// TestPersistStagingCycleZeroAlloc is the allocation gate for the
// persist handoff: once warm, one batch — a log mutation, a fenced
// AppendEntriesReply and a fenced proposal reply — staged by flush,
// persisted by doPersistRun and released by onPersistDone allocates
// nothing, and leaves no payload behind in a reused buffer. The test
// plays the persist worker itself.
func TestPersistStagingCycleZeroAlloc(t *testing.T) {
	nd, st, ep := newHandoffNode(t)
	for i := 1; i <= 4; i++ {
		nd.hs.log.appendEntry(Entry{Term: 1, Command: i})
	}
	view := nd.hs.log.slice(1)
	var ack any = AppendEntriesReply{Term: 1, Success: true, MatchIndex: 4}
	ch := make(chan proposeReply, 1)
	var run persistRun
	cycle := func() {
		nd.persistLog(0, view)
		nd.outbox = append(nd.outbox, outMsg{to: 1, payload: ack})
		nd.replies = append(nd.replies, stagedReply{ch: ch, reply: proposeReply{index: 4, term: 1}, fenced: true})
		nd.flush()
		run.reqs = append(run.reqs, <-nd.persistQ)
		nd.onPersistDone(nd.doPersistRun(&run))
		if rep := <-ch; rep.index != 4 {
			t.Fatalf("released reply = %+v", rep)
		}
	}
	cycle() // warm the free lists and the run's scratch
	allocs := testing.AllocsPerRun(1000, cycle)
	if allocs != 0 {
		t.Fatalf("staging cycle allocates %.1f/op; want 0", allocs)
	}
	if st.batches != 1002 || ep.sends != 1002 {
		t.Fatalf("%d AppendBatch calls and %d sends, want 1002 each", st.batches, ep.sends)
	}
	if nd.durableIndex != 4 || len(nd.pendingPersist) != 0 {
		t.Fatalf("durableIndex %d with %d batches in flight", nd.durableIndex, len(nd.pendingPersist)-nd.persistHead)
	}
	for _, b := range nd.freeMuts {
		if b[:cap(b)][0].Entries != nil {
			t.Fatal("a recycled mutation buffer still references log entries")
		}
	}
	if nd.outbox[:cap(nd.outbox)][0].payload != nil {
		t.Fatal("the drained outbox still references a sent payload")
	}
}

// TestAppliedAdvanceWithoutWaiterZeroAlloc is the allocation gate for
// the applied notifier: an advance nobody waits on rotates no channel.
// A waiter that took the channel is still woken.
func TestAppliedAdvanceWithoutWaiterZeroAlloc(t *testing.T) {
	a := newAppliedNotifier(0, 0)
	idx := 0
	allocs := testing.AllocsPerRun(1000, func() {
		idx++
		a.advance(idx, 1)
	})
	if allocs != 0 {
		t.Fatalf("advance without a waiter allocates %.1f/op; want 0", allocs)
	}

	done := make(chan error, 1)
	go func() {
		_, _, err := a.wait(context.Background(), nil, idx+1, nil)
		done <- err
	}()
	for {
		a.mu.Lock()
		held := a.held
		a.mu.Unlock()
		if held {
			break
		}
		runtime.Gosched()
	}
	a.advance(idx+1, 1)
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("a waiter holding the channel was not woken by advance")
	}
}

// TestProposeAbandonedReplyNeverReused checks the pooled reply channels:
// a proposal abandoned on ctx after it was enqueued never returns its
// channel to the pool, so the node's late reply on it can never reach
// the next proposer. The test plays the main loop.
func TestProposeAbandonedReplyNeverReused(t *testing.T) {
	nd, _, _ := newHandoffNode(t)
	type result struct {
		rep proposeReply
		err error
	}
	for i := 0; i < 50; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		res := make(chan result, 1)
		go func() {
			rep, err := nd.propose(ctx, i)
			res <- result{rep, err}
		}()
		abandoned := <-nd.proposeCh
		cancel()
		if r := <-res; !errors.Is(r.err, context.Canceled) {
			t.Fatalf("abandoned propose returned %+v", r)
		}
		abandoned.reply <- proposeReply{index: -1} // the late reply

		go func() {
			rep, err := nd.propose(context.Background(), i)
			res <- result{rep, err}
		}()
		next := <-nd.proposeCh
		if next.reply == abandoned.reply {
			t.Fatalf("round %d: the abandoned reply channel went back to the pool", i)
		}
		next.reply <- proposeReply{index: i + 1, term: 1}
		if r := <-res; r.err != nil || r.rep.index != i+1 {
			t.Fatalf("round %d: proposer got %+v, want index %d", i, r, i+1)
		}
	}
}

// BenchmarkPersistApplyHandoff is the ledger row for the write path's
// two worker handoffs: one staged batch (one new entry and its fenced
// proposal reply) goes to the persist worker and back, commits, and
// goes through the apply worker until the applied notifier publishes
// it. Storage and state machine are no-ops, so the row is the handoffs'
// own cost: channel hops, goroutine wakeups and staging.
func BenchmarkPersistApplyHandoff(b *testing.B) {
	nd, _, _ := newHandoffNode(b)
	nd.workers.Add(2)
	go nd.persistWorker()
	go nd.applyWorker()
	defer func() {
		nd.shutdown()
		nd.workers.Wait()
	}()
	ctx := context.Background()
	var cmd any = KVCommand{Op: "set", Key: "k", Value: "v"}
	ch := make(chan proposeReply, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		idx := nd.hs.log.appendEntry(Entry{Term: 1, Command: cmd})
		nd.persistLog(idx-1, nd.hs.log.slice(idx))
		nd.replies = append(nd.replies, stagedReply{ch: ch, reply: proposeReply{index: idx, term: 1}, fenced: true})
		nd.flush()
		nd.onPersistDone(<-nd.persistDoneCh)
		<-ch
		nd.setCommitIndex(idx)
		if _, _, err := nd.applied.wait(ctx, nd.stopped, idx, nil); err != nil {
			b.Fatal(err)
		}
	}
}
