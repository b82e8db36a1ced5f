// Package msgnet defines the minimal message-passing surface every
// protocol in this repository is written against. Two implementations
// exist: the in-memory simulated network (internal/netsim) and the real
// TCP transport (internal/transport). Protocol code never knows which one
// it is running on.
package msgnet

import (
	"context"
	"errors"
)

// Message is one point-to-point message. Payload is protocol-defined; on
// the wire transport it must be a type the codec knows natively or a
// registered, gob-encodable type (transport.Register).
type Message struct {
	From    int
	To      int
	Payload any
}

// Endpoint is one processor's handle on the network.
//
// Recv blocks until a message is available, the context is cancelled, or
// the endpoint is crashed/closed. Send and Broadcast never block on the
// receiver; delivery order between distinct messages is NOT guaranteed —
// the simulated network deliberately reorders to model asynchrony.
type Endpoint interface {
	// ID is this processor's index in [0, N).
	ID() int
	// N is the total number of processors on the network.
	N() int
	// Send enqueues payload for processor to (sending to self is legal).
	Send(to int, payload any) error
	// Broadcast sends payload to every processor, including the sender.
	// The paper's pseudocode "send to all" includes the sender itself.
	Broadcast(payload any) error
	// Recv returns the next delivered message.
	Recv(ctx context.Context) (Message, error)
}

// Traced wraps a payload with the per-request trace ID that produced it
// (internal/rtrace). The wrapper exists so the ID can cross process
// boundaries: the binary codec hoists it into the frame header (frame
// version 2, DESIGN §3.6) instead of encoding the wrapper itself, and
// strips it toward peers pinned to frame version 1. In-process
// consumers (the raft node loop, the mux) unwrap it with TraceOf. ID 0
// never wraps.
type Traced struct {
	ID      uint64
	Payload any
}

// WithTraceID wraps payload for the wire when id is non-zero; the
// unsampled path returns payload untouched, allocating nothing.
func WithTraceID(id uint64, payload any) any {
	if id == 0 {
		return payload
	}
	return Traced{ID: id, Payload: payload}
}

// TraceOf unwraps one Traced layer, returning the trace ID (0 if none)
// and the inner payload.
func TraceOf(payload any) (uint64, any) {
	if t, ok := payload.(Traced); ok {
		return t.ID, t.Payload
	}
	return 0, payload
}

// Sentinel errors shared by all Endpoint implementations.
var (
	// ErrCrashed is returned once the local processor has been crashed by
	// fault injection; all subsequent operations fail with it.
	ErrCrashed = errors.New("msgnet: endpoint crashed")
	// ErrClosed is returned after the network has been shut down.
	ErrClosed = errors.New("msgnet: network closed")
)
