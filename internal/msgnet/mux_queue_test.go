package msgnet

import (
	"context"
	"testing"
)

// TestSubEndpointQueueStaysBounded keeps a channel's queue one message
// behind for many cycles: the queue never drains, so only sliding the
// backlog down on a full array keeps it from growing without bound.
func TestSubEndpointQueueStaysBounded(t *testing.T) {
	m := &Mux{subs: make(map[string]*subEndpoint), backlog: make(map[string][]Message)}
	s := m.Channel("shard/1").(*subEndpoint)
	ctx := context.Background()
	s.enqueueLocked(Message{From: -1})
	for i := 0; i < 10000; i++ {
		s.enqueueLocked(Message{From: i})
		if _, err := s.Recv(ctx); err != nil {
			t.Fatal(err)
		}
	}
	if c := cap(s.pending); c > 8 {
		t.Fatalf("a backlog of 1–2 messages grew the array to %d slots", c)
	}
	if last, _ := s.Recv(ctx); last.From != 9999 {
		t.Fatalf("last message is from %d, want 9999", last.From)
	}
}
