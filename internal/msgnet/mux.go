package msgnet

import (
	"context"
	"fmt"
	"sync"

	"ooc/internal/metrics"
)

// Mux multiplexes several independent protocol instances over one
// Endpoint: each instance gets its own channel-tagged sub-endpoint, and a
// dispatcher goroutine routes inbound messages by tag. This is how, for
// example, several consensus instances share one TCP transport, or a
// composite object runs two message-passing sub-objects over one
// simulated node.
//
// Channels are matched by name across processors. Traffic arriving for a
// channel that has not been created yet is buffered and handed over on
// creation, so instances may start at different times on different
// processors. The buffer is bounded per channel (WithBacklogLimit):
// past the cap, the newest message for that channel is dropped and
// counted, so a channel nobody ever creates — a misrouted tag, or a
// shard group that failed to boot — cannot grow an unbounded queue.
type Mux struct {
	parent       Endpoint
	backlogLimit int
	dropped      *metrics.Counter
	onDrop       func(channel string, from int)

	mu      sync.Mutex
	subs    map[string]*subEndpoint
	backlog map[string][]Message
	closed  bool
	err     error
	once    sync.Once
}

// MuxOption configures a Mux.
type MuxOption func(*Mux)

// DefaultBacklogLimit is the per-channel cap on messages buffered for a
// channel that has not been created yet. Boot skew between processors
// spans at most a few protocol rounds of traffic; 4096 covers that with
// a wide margin while bounding a never-created channel's memory.
const DefaultBacklogLimit = 4096

// WithBacklogLimit overrides the per-channel backlog cap. Zero or
// negative restores the default; there is deliberately no unbounded
// setting.
func WithBacklogLimit(n int) MuxOption {
	return func(m *Mux) {
		if n > 0 {
			m.backlogLimit = n
		}
	}
}

// WithMuxMetrics counts backlog drops in reg as
// mux_backlog_dropped_total, attributed to the parent endpoint's id. A
// nil registry keeps the no-op counter.
func WithMuxMetrics(reg *metrics.Registry) MuxOption {
	return func(m *Mux) {
		if reg != nil {
			m.dropped = reg.Counter("mux_backlog_dropped_total")
		}
	}
}

// WithMuxDropHook installs a callback fired (off the mux lock, on the
// dispatcher goroutine) each time the backlog cap drops a message, with
// the channel it was tagged for and the sender. The counter says drops
// happened; the hook says which channel and who — it is how the flight
// recorder makes drops attributable post-hoc (ISSUE 8).
func WithMuxDropHook(fn func(channel string, from int)) MuxOption {
	return func(m *Mux) { m.onDrop = fn }
}

// Tagged is the wire wrapper. The binary codec (internal/codec) encodes
// it natively, recursing on the payload.
type Tagged struct {
	Channel string
	Payload any
}

// WireTypes lists the mux's wire wrappers for gob registration (needed
// only when one rides inside a foreign gob-encoded payload).
func WireTypes() []any { return []any{Tagged{}, Traced{}} }

// ChannelOf reports the mux channel name a payload is tagged with. Trace
// recorders sitting under the mux (netsim, transport) capture the wire
// wrapper verbatim, so inspectors use this to group recorded traffic by
// channel without knowing the wrapper type.
func ChannelOf(payload any) (string, bool) {
	t, ok := payload.(Tagged)
	if !ok {
		return "", false
	}
	return t.Channel, true
}

// NewMux wraps parent and starts the dispatcher, which runs until ctx is
// cancelled or the parent endpoint dies — give the Mux the same lifetime
// as the node it serves. Once the dispatcher stops, every sub-endpoint's
// Recv fails with the terminating error.
func NewMux(ctx context.Context, parent Endpoint, opts ...MuxOption) *Mux {
	m := &Mux{
		parent:       parent,
		backlogLimit: DefaultBacklogLimit,
		subs:         make(map[string]*subEndpoint),
		backlog:      make(map[string][]Message),
	}
	for _, opt := range opts {
		opt(m)
	}
	go m.dispatch(ctx)
	return m
}

// Channel returns the sub-endpoint for the named channel, creating it on
// first use. Calling Channel twice with one name returns the same
// endpoint.
func (m *Mux) Channel(name string) Endpoint {
	m.mu.Lock()
	defer m.mu.Unlock()
	if s, ok := m.subs[name]; ok {
		return s
	}
	s := &subEndpoint{
		mux:     m,
		channel: name,
		notify:  make(chan struct{}, 1),
	}
	s.pending = append(s.pending, m.backlog[name]...)
	delete(m.backlog, name)
	m.subs[name] = s
	return s
}

func (m *Mux) dispatch(ctx context.Context) {
	for {
		msg, err := m.parent.Recv(ctx)
		if err != nil {
			m.fail(err)
			return
		}
		tag, ok := msg.Payload.(Tagged)
		if !ok {
			continue // foreign traffic on the parent endpoint
		}
		routed := Message{From: msg.From, To: msg.To, Payload: tag.Payload}
		m.mu.Lock()
		if m.closed {
			m.mu.Unlock()
			continue
		}
		s, ok := m.subs[tag.Channel]
		dropped := false
		if ok {
			s.pending = append(s.pending, routed)
		} else if len(m.backlog[tag.Channel]) < m.backlogLimit {
			m.backlog[tag.Channel] = append(m.backlog[tag.Channel], routed)
		} else {
			// Over the cap: drop the newest. The protocols above the mux
			// already tolerate message loss (Raft retransmits, the OOC
			// protocols re-broadcast per round), so dropping beats letting
			// a dead channel's queue grow without bound.
			m.dropped.Inc(m.parent.ID())
			dropped = true
		}
		m.mu.Unlock()
		if ok {
			s.wake()
		}
		if dropped && m.onDrop != nil {
			m.onDrop(tag.Channel, msg.From)
		}
	}
}

// fail marks every sub-endpoint dead with err.
func (m *Mux) fail(err error) {
	m.once.Do(func() {
		m.mu.Lock()
		m.closed = true
		m.err = err
		subs := make([]*subEndpoint, 0, len(m.subs))
		for _, s := range m.subs {
			subs = append(subs, s)
		}
		m.mu.Unlock()
		for _, s := range subs {
			s.wake()
		}
	})
}

type subEndpoint struct {
	mux     *Mux
	channel string

	pending []Message
	notify  chan struct{}
}

var _ Endpoint = (*subEndpoint)(nil)

func (s *subEndpoint) wake() {
	select {
	case s.notify <- struct{}{}:
	default:
	}
}

// ID implements Endpoint.
func (s *subEndpoint) ID() int { return s.mux.parent.ID() }

// N implements Endpoint.
func (s *subEndpoint) N() int { return s.mux.parent.N() }

// Send implements Endpoint.
func (s *subEndpoint) Send(to int, payload any) error {
	if err := s.mux.parent.Send(to, Tagged{Channel: s.channel, Payload: payload}); err != nil {
		return fmt.Errorf("mux channel %q: %w", s.channel, err)
	}
	return nil
}

// Broadcast implements Endpoint.
func (s *subEndpoint) Broadcast(payload any) error {
	if err := s.mux.parent.Broadcast(Tagged{Channel: s.channel, Payload: payload}); err != nil {
		return fmt.Errorf("mux channel %q: %w", s.channel, err)
	}
	return nil
}

// Recv implements Endpoint.
func (s *subEndpoint) Recv(ctx context.Context) (Message, error) {
	for {
		s.mux.mu.Lock()
		if len(s.pending) > 0 {
			msg := s.pending[0]
			s.pending = s.pending[1:]
			s.mux.mu.Unlock()
			return msg, nil
		}
		closed, err := s.mux.closed, s.mux.err
		s.mux.mu.Unlock()
		if closed {
			if err == nil {
				err = ErrClosed
			}
			return Message{}, fmt.Errorf("mux channel %q: %w", s.channel, err)
		}
		select {
		case <-ctx.Done():
			return Message{}, ctx.Err()
		case <-s.notify:
		}
	}
}
