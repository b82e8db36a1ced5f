package raft

import (
	"context"
	"errors"
	"testing"
	"time"

	"ooc/internal/netsim"
	"ooc/internal/sim"
)

// TestSubscribeFilterIsLossless runs one node through an election and a
// few applied proposals with three subscribers — every kind, leader
// only, and applied plus committed — and checks that each filtered
// stream is exactly the full stream restricted to its kinds, in order.
func TestSubscribeFilterIsLossless(t *testing.T) {
	nw := netsim.New(1, netsim.WithSeed(3))
	kv := &KVStore{}
	node, err := NewNode(Config{
		ID:                0,
		Endpoint:          nw.Node(0),
		RNG:               sim.NewRNG(3),
		ElectionTimeout:   testElection,
		HeartbeatInterval: testHeartbeat,
		StateMachine:      kv,
	})
	if err != nil {
		t.Fatal(err)
	}
	all := node.Subscribe()
	leader := node.Subscribe(EventBecameLeader)
	done := node.Subscribe(EventApplied, EventCommitted)

	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	runCtx, stop := context.WithCancel(ctx)
	node.Start(runCtx)
	const writes = 5
	var last int
	for i := 0; i < writes; {
		idx, err := node.Propose(ctx, KVCommand{Op: "set", Key: "k", Value: "v"})
		var nl ErrNotLeader
		if errors.As(err, &nl) {
			time.Sleep(time.Millisecond)
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		last = idx
		i++
	}
	if _, err := node.AwaitApplied(ctx, last); err != nil {
		t.Fatal(err)
	}
	stop()
	<-node.Done()

	drain := func(s *Subscription) []Event {
		var evs []Event
		for {
			ev, err := s.Next(ctx)
			if err != nil {
				if !errors.Is(err, ErrStopped) {
					t.Fatalf("drain: %v", err)
				}
				return evs
			}
			evs = append(evs, ev)
		}
	}
	full := drain(all)
	only := func(kinds ...EventKind) []Event {
		var out []Event
		for _, ev := range full {
			for _, k := range kinds {
				if ev.Kind == k {
					out = append(out, ev)
				}
			}
		}
		return out
	}
	for _, c := range []struct {
		name string
		got  []Event
		want []Event
	}{
		{"leader-only", drain(leader), only(EventBecameLeader)},
		{"applied+committed", drain(done), only(EventApplied, EventCommitted)},
	} {
		if len(c.want) == 0 {
			t.Fatalf("%s: the full stream holds none of the subscribed kinds", c.name)
		}
		if len(c.got) != len(c.want) {
			t.Fatalf("%s: got %d events, want %d", c.name, len(c.got), len(c.want))
		}
		for i := range c.got {
			if c.got[i].String() != c.want[i].String() {
				t.Fatalf("%s: event %d = %v, want %v", c.name, i, c.got[i], c.want[i])
			}
		}
	}
}

// TestEmitSkipsUnsubscribedKindsZeroAlloc is the allocation gate for the
// kind filter: emitting an applied entry to a leader-only subscriber
// neither allocates nor queues anything.
func TestEmitSkipsUnsubscribedKindsZeroAlloc(t *testing.T) {
	node, err := NewNode(Config{ID: 0, Endpoint: netsim.New(1).Node(0), RNG: sim.NewRNG(1)})
	if err != nil {
		t.Fatal(err)
	}
	sub := node.Subscribe(EventBecameLeader)
	ev := Event{Kind: EventApplied, Node: 0, Term: 1, Index: 7}
	allocs := testing.AllocsPerRun(1000, func() { node.emit(ev) })
	if allocs != 0 {
		t.Fatalf("emit to a leader-only subscriber allocates %.1f/op; want 0", allocs)
	}
	if n := len(sub.q.events) - sub.q.head; n != 0 {
		t.Fatalf("leader-only subscriber queued %d applied events", n)
	}
}

// TestEventQueueReusesArray checks the queue's head index: a drained
// queue refills its old array, so a steady push/pop cycle allocates
// nothing, and a queue that never drains stays as big as its backlog.
func TestEventQueueReusesArray(t *testing.T) {
	q := newEventQueue()
	ctx := context.Background()
	ev := Event{Kind: EventApplied, Index: 1}
	allocs := testing.AllocsPerRun(1000, func() {
		q.push(ev)
		q.push(ev)
		if _, err := q.pop(ctx); err != nil {
			t.Fatal(err)
		}
		if _, err := q.pop(ctx); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("push/pop cycle allocates %.1f/op; want 0", allocs)
	}

	q.push(ev) // a standing backlog of one: the queue never drains
	for i := 0; i < 10000; i++ {
		q.push(Event{Kind: EventApplied, Index: i})
		if _, err := q.pop(ctx); err != nil {
			t.Fatal(err)
		}
	}
	if c := cap(q.events); c > 8 {
		t.Fatalf("a backlog of 1–2 events grew the array to %d slots", c)
	}
	if e, _ := q.pop(ctx); e.Index != 9999 {
		t.Fatalf("last event has index %d, want 9999", e.Index)
	}
}
