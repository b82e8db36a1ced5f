package transport

import (
	"context"
	"fmt"
	"net"
	"reflect"
	"testing"
	"time"

	"ooc/internal/raft"
	"ooc/internal/rtrace"
	"ooc/internal/sim"
)

// perNodeCluster builds n connected transports where optsFor(i) picks
// each node's options — the per-node knob NewLocalCluster doesn't
// expose, needed to pin one peer to an older frame version.
func perNodeCluster(t *testing.T, n int, optsFor func(i int) []Option) []*Transport {
	t.Helper()
	listeners := make([]net.Listener, n)
	addrs := make([]string, n)
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		listeners[i] = ln
		addrs[i] = ln.Addr().String()
	}
	trs := make([]*Transport, n)
	for i := 0; i < n; i++ {
		trs[i] = listenOn(i, addrs, listeners[i], optsFor(i)...)
	}
	t.Cleanup(func() {
		for _, tr := range trs {
			_ = tr.Close()
		}
	})
	return trs
}

// runTracedCluster drives traced writes through a 3-node TCP cluster
// built from trs and returns the tracer for span assertions. Every
// committed write must land on every node's state machine regardless of
// what frame version each peer speaks.
func runTracedCluster(t *testing.T, trs []*Transport, tracer *rtrace.Tracer) {
	t.Helper()
	n := len(trs)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	rng := sim.NewRNG(11)
	sms := make([]*raft.KVStore, n)
	nodes := make([]*raft.Node, n)
	for id := 0; id < n; id++ {
		sms[id] = &raft.KVStore{}
		node, err := raft.NewNode(raft.Config{
			ID:                id,
			Endpoint:          trs[id],
			RNG:               rng.Fork(uint64(id)),
			ElectionTimeout:   60 * time.Millisecond,
			HeartbeatInterval: 12 * time.Millisecond,
			StateMachine:      sms[id],
			Tracer:            tracer,
		})
		if err != nil {
			t.Fatal(err)
		}
		nodes[id] = node
		node.Start(ctx)
	}
	client, err := raft.NewClient(nodes, raft.WithClientTracer(tracer))
	if err != nil {
		t.Fatal(err)
	}
	const writes = 8
	var last int
	for i := 0; i < writes; i++ {
		idx, err := client.SubmitWait(ctx, raft.KVCommand{Op: "set", Key: fmt.Sprintf("k%d", i), Value: fmt.Sprintf("v%d", i)})
		if err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
		last = idx
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
			for id, sm := range sms {
				t.Logf("node %d applied=%d want>=%d", id, sm.AppliedIndex(), last)
			}
			t.Fatal("replication did not complete")
		}
		time.Sleep(5 * time.Millisecond)
	}
	want := sms[0].Snapshot()
	for id := 1; id < n; id++ {
		if got := sms[id].Snapshot(); !reflect.DeepEqual(got, want) {
			t.Fatalf("node %d state diverged:\n got %v\nwant %v", id, got, want)
		}
	}
}

// assertTracedSpans checks that the traced writes produced completed
// client spans with phase attribution — i.e. tracing survived whatever
// wire mix the cluster ran.
func assertTracedSpans(t *testing.T, tracer *rtrace.Tracer, minSpans int) {
	t.Helper()
	good := 0
	for _, s := range tracer.Spans() {
		if s.Remote || s.Err || s.Op != "set" {
			continue
		}
		if len(s.Phases) == 0 {
			continue
		}
		good++
	}
	if good < minSpans {
		t.Fatalf("only %d clean attributed spans, want >= %d (spans: %d total)",
			good, minSpans, len(tracer.Spans()))
	}
}

// TestMixedFrameVersionCluster is the compatibility regression for the
// frame V2 (trace ID) bump: one peer pinned to frame V1 — a binary
// built before tracing existed — joins two V2 peers, tracing enabled at
// sample 1.0. Writes must commit on every node (the V1 peer just never
// sees trace IDs), and the V2 side must still assemble spans. It is the
// regression test for trace stripping toward peers that cannot carry
// trace IDs.
func TestMixedFrameVersionCluster(t *testing.T) {
	trs := perNodeCluster(t, 3, func(i int) []Option {
		if i == 2 {
			return []Option{WithMaxFrameVersion(1)}
		}
		return nil
	})
	tracer := rtrace.New(rtrace.Options{Sample: 1})
	runTracedCluster(t, trs, tracer)
	assertTracedSpans(t, tracer, 1)
}
