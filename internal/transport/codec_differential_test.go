package transport

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"ooc/internal/raft"
	"ooc/internal/sim"
)

// recordingKV wraps a KVStore and records the applied command sequence,
// so two cluster runs can be compared commit by commit.
type recordingKV struct {
	raft.KVStore
	mu  sync.Mutex
	seq []string
}

func (s *recordingKV) Apply(index int, command any) {
	s.mu.Lock()
	s.seq = append(s.seq, fmt.Sprintf("%d:%v", index, command))
	s.mu.Unlock()
	s.KVStore.Apply(index, command)
}

func (s *recordingKV) commits() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]string(nil), s.seq...)
}

// runSequence drives cmds through a 3-node TCP Raft cluster and returns
// the commit sequence and final key space observed by every node.
func runSequence(t *testing.T, seed uint64, cmds []raft.KVCommand) (seqs [][]string, snaps [][]string) {
	t.Helper()
	const n = 3
	trs := localCluster(t, n)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	rng := sim.NewRNG(seed)
	sms := make([]*recordingKV, n)
	nodes := make([]*raft.Node, n)
	for id := 0; id < n; id++ {
		sms[id] = &recordingKV{}
		node, err := raft.NewNode(raft.Config{
			ID:                id,
			Endpoint:          trs[id],
			RNG:               rng.Fork(uint64(id)),
			ElectionTimeout:   60 * time.Millisecond,
			HeartbeatInterval: 12 * time.Millisecond,
			StateMachine:      sms[id],
		})
		if err != nil {
			t.Fatal(err)
		}
		nodes[id] = node
		node.Start(ctx)
	}

	propose := func(cmd raft.KVCommand) int {
		deadline := time.Now().Add(30 * time.Second)
		for {
			if time.Now().After(deadline) {
				t.Fatalf("seed %d: proposal %v made no progress", seed, cmd)
			}
			leader := -1
			for id, node := range nodes {
				if node.Status().State == raft.Leader {
					leader = id
				}
			}
			if leader == -1 {
				time.Sleep(5 * time.Millisecond)
				continue
			}
			idx, err := nodes[leader].Propose(ctx, cmd)
			if err == nil {
				return idx
			}
		}
	}

	var last int
	for _, cmd := range cmds {
		last = propose(cmd)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		done := true
		for _, sm := range sms {
			if sm.AppliedIndex() < last {
				done = false
			}
		}
		if done {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("seed %d: replication did not complete", seed)
		}
		time.Sleep(5 * time.Millisecond)
	}
	for _, sm := range sms {
		seqs = append(seqs, sm.commits())
		snaps = append(snaps, sm.KVStore.Snapshot())
	}
	return seqs, snaps
}

// TestCodecDifferentialAgainstGob is the end-to-end differential check
// of the wire codec. Its oracle involves no codec at all: the same
// command sequence is applied directly to an in-process raft.KVStore,
// and every node of a TCP cluster must end with that store's state and
// must have committed exactly cmds, in order. Leader no-ops make the
// absolute log indexes election-dependent, so the commit sequences are
// compared after filtering to KV commands only. The codec-level oracles
// are TestDecodeMatchesGobOracle and the fuzz corpora in
// internal/codec.
func TestCodecDifferentialAgainstGob(t *testing.T) {
	cmds := []raft.KVCommand{
		{Op: "set", Key: "a", Value: "1"},
		{Op: "set", Key: "b", Value: "2"},
		{Op: "set", Key: "a", Value: "3"},
		{Op: "delete", Key: "b"},
		{Op: "set", Key: "c", Value: "4"},
	}
	var oracle raft.KVStore
	want := make([]string, len(cmds))
	for i, cmd := range cmds {
		oracle.Apply(i+1, cmd)
		want[i] = fmt.Sprintf("%v", cmd)
	}
	wantSnap := oracle.Snapshot()
	for _, seed := range []uint64{1, 42} {
		seqs, snaps := runSequence(t, seed, cmds)
		for id := range snaps {
			if !reflect.DeepEqual(snaps[id], wantSnap) {
				t.Fatalf("seed %d node %d: state %v != oracle state %v", seed, id, snaps[id], wantSnap)
			}
		}
		for id := range seqs {
			if got := kvOnly(seqs[id]); !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d node %d: commits %v != oracle commits %v", seed, id, got, want)
			}
		}
	}
}

// kvOnly strips index prefixes and non-KV entries (leader no-ops) from a
// commit sequence, leaving the applied command order.
func kvOnly(seq []string) []string {
	out := make([]string, 0, len(seq))
	for _, s := range seq {
		for i := range s {
			if s[i] == ':' {
				s = s[i+1:]
				break
			}
		}
		if s == "noop" || s == "{}" {
			continue
		}
		out = append(out, s)
	}
	return out
}
