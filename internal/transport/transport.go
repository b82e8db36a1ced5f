// Package transport is a real TCP implementation of msgnet.Endpoint:
// length-delimited binary-codec streams (internal/codec) over persistent
// connections, one process per protocol node. It lets every protocol in
// this repository — Ben-Or, Raft, the VAC compositions — run across
// actual sockets rather than the in-memory simulator, with identical
// protocol code.
//
// Delivery semantics match the asynchronous model the protocols assume:
// Send is best-effort (a broken connection drops the message and triggers
// reconnection on the next send), ordering across messages is not
// guaranteed, and duplication does not occur. Raft's retries and Ben-Or's
// quorum waits tolerate exactly this.
//
// Every connection opens with a one-byte preamble ('B') and the
// sender's id, then carries length-prefixed codec frames; the codec
// encodes the known message set with zero steady-state allocations. A
// connection with any other preamble is a foreign client and is closed.
//
// Payload types outside the codec's native set travel inside a gob blob
// in the frame, so they must be registered with Register before use, on
// both sides.
package transport

import (
	"bufio"
	"context"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"

	"ooc/internal/codec"
	"ooc/internal/codec/bin"
	"ooc/internal/metrics"
	"ooc/internal/msgnet"
	"ooc/internal/trace"
)

// Register makes a payload type encodable; call it once per concrete
// type before any Send (e.g. for Raft: Register(raft.WireTypes()...)).
// Only types outside the codec's native set need it, but registering
// everything is harmless.
func Register(values ...any) {
	for _, v := range values {
		gob.Register(v)
	}
}

// preambleBinary opens every connection; the receiver drops streams that
// start with anything else.
const preambleBinary = 'B'

// maxFrame caps an inbound frame. Snapshot transfers dominate
// frame size; anything beyond this is a corrupt length prefix, not a
// message, and the connection is dropped rather than the allocation
// attempted.
const maxFrame = 1 << 28

// Option configures a Transport.
type Option func(*Transport)

// WithRecorder attaches a trace recorder. Remote sends record their
// exact framed byte count; local sends record zero.
func WithRecorder(rec *trace.Recorder) Option {
	return func(tr *Transport) { tr.rec = rec }
}

// WithMaxFrameVersion caps the codec frame version this transport
// emits. Pinning codec.Version (1) strips per-request trace IDs instead
// of emitting VersionTraced frames — the rolling-upgrade knob for
// clusters with peers that predate the trace field and reject unknown
// versions (DESIGN §3.5/§3.6). Values outside [1, codec.MaxVersion] are
// clamped.
func WithMaxFrameVersion(v byte) Option {
	return func(tr *Transport) {
		if v < codec.Version {
			v = codec.Version
		}
		if v > codec.MaxVersion {
			v = codec.MaxVersion
		}
		tr.maxVer = v
	}
}

// WithMetrics counts encoded and decoded wire bytes in reg as
// codec_encode_bytes_total / codec_decode_bytes_total, attributed to
// this transport's node id. Encode counts each frame plus its length
// prefix; decode counts the frame alone. Local sends count nothing.
func WithMetrics(reg *metrics.Registry) Option {
	return func(tr *Transport) {
		if reg != nil {
			tr.encBytes = reg.Counter("codec_encode_bytes_total")
			tr.decBytes = reg.Counter("codec_decode_bytes_total")
		}
	}
}

// Transport is one node's TCP endpoint.
type Transport struct {
	id     int
	addrs  []string
	ln     net.Listener
	rec    *trace.Recorder
	maxVer byte // highest codec frame version to emit

	encBytes *metrics.Counter
	decBytes *metrics.Counter

	mu      sync.Mutex
	conns   map[int]*outConn
	inbound map[net.Conn]struct{}
	pending []msgnet.Message
	closed  bool
	notify  chan struct{}

	wg sync.WaitGroup
}

// outConn is one buffered outbound stream. Each frame is built in the
// reusable scratch buffer and written length-prefixed into bw. Each Send
// flushes after encoding — so a message leaves in one syscall — and
// Broadcast batches its per-peer copies into a single flush each.
type outConn struct {
	conn    net.Conn
	bw      *bufio.Writer
	scratch []byte // reused frame buffer
}

// outBufSize is the per-peer write buffer. Large enough to hold a
// typical AppendEntries batch; anything bigger spills through bufio's
// large-write path unharmed.
const outBufSize = 64 << 10

var _ msgnet.Endpoint = (*Transport)(nil)

// Listen binds addrs[id] and starts accepting peer connections. addrs is
// the full cluster membership, indexed by node id.
func Listen(id int, addrs []string, opts ...Option) (*Transport, error) {
	if id < 0 || id >= len(addrs) {
		return nil, fmt.Errorf("transport: id %d out of range for %d addresses", id, len(addrs))
	}
	ln, err := net.Listen("tcp", addrs[id])
	if err != nil {
		return nil, fmt.Errorf("transport: listen %s: %w", addrs[id], err)
	}
	return listenOn(id, addrs, ln, opts...), nil
}

func listenOn(id int, addrs []string, ln net.Listener, opts ...Option) *Transport {
	tr := &Transport{
		id:      id,
		addrs:   append([]string(nil), addrs...),
		ln:      ln,
		maxVer:  codec.MaxVersion,
		conns:   make(map[int]*outConn),
		inbound: make(map[net.Conn]struct{}),
		notify:  make(chan struct{}, 1),
	}
	for _, opt := range opts {
		opt(tr)
	}
	tr.wg.Add(1)
	go tr.acceptLoop()
	return tr
}

// NewLocalCluster builds n connected transports on loopback ephemeral
// ports — the quickest way to run a protocol over real sockets in tests
// and examples. Close every returned transport when done.
func NewLocalCluster(n int, opts ...Option) ([]*Transport, error) {
	listeners := make([]net.Listener, n)
	addrs := make([]string, n)
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for j := 0; j < i; j++ {
				_ = listeners[j].Close()
			}
			return nil, fmt.Errorf("transport: local cluster: %w", err)
		}
		listeners[i] = ln
		addrs[i] = ln.Addr().String()
	}
	out := make([]*Transport, n)
	for i := 0; i < n; i++ {
		out[i] = listenOn(i, addrs, listeners[i], opts...)
	}
	return out, nil
}

// ID implements msgnet.Endpoint.
func (tr *Transport) ID() int { return tr.id }

// N implements msgnet.Endpoint.
func (tr *Transport) N() int { return len(tr.addrs) }

// Addr reports the listener's actual address (useful with ":0").
func (tr *Transport) Addr() string { return tr.ln.Addr().String() }

// Send implements msgnet.Endpoint. Local sends short-circuit the network.
func (tr *Transport) Send(to int, payload any) error {
	return tr.send(to, payload, true)
}

// send encodes payload to peer to; when flush is set the write buffer is
// drained before returning (the single-Send path). Broadcast passes
// flush=false and drains every dirty peer once at the end instead.
func (tr *Transport) send(to int, payload any, flush bool) error {
	if to < 0 || to >= len(tr.addrs) {
		return fmt.Errorf("transport: send to invalid node %d", to)
	}
	tr.mu.Lock()
	if tr.closed {
		tr.mu.Unlock()
		return msgnet.ErrClosed
	}
	if to == tr.id {
		tr.pending = append(tr.pending, msgnet.Message{From: tr.id, To: to, Payload: payload})
		tr.mu.Unlock()
		tr.wake()
		tr.rec.Send(tr.id, to, 0, 0, payload)
		return nil
	}
	var wire int
	oc, err := tr.connLocked(to)
	if err == nil {
		wire, err = tr.encodeLocked(oc, payload)
		if err == nil && flush {
			err = oc.bw.Flush()
		}
		if err != nil {
			// Broken pipe or unencodable payload: drop the connection;
			// the next send redials with a fresh stream.
			_ = oc.conn.Close()
			delete(tr.conns, to)
		}
	}
	tr.mu.Unlock()
	if err != nil {
		tr.rec.Drop(to, tr.id, 0, payload)
		// Best-effort semantics: remote loss is silent, like the
		// simulator's drops. The caller cannot act on it anyway.
		return nil //nolint:nilerr // deliberate: async send never fails on remote errors
	}
	tr.encBytes.Add(tr.id, int64(wire))
	tr.rec.Send(tr.id, to, 0, wire, payload)
	return nil
}

// encodeLocked writes one message into oc's buffered writer and reports
// the framed byte count. Caller holds tr.mu.
func (tr *Transport) encodeLocked(oc *outConn, payload any) (int, error) {
	frame, err := codec.AppendMax(oc.scratch[:0], payload, tr.maxVer)
	oc.scratch = frame[:0] // keep growth for the next frame
	if err != nil {
		return 0, err
	}
	var hdr [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(hdr[:], uint64(len(frame)))
	if _, err := oc.bw.Write(hdr[:n]); err != nil {
		return 0, err
	}
	if _, err := oc.bw.Write(frame); err != nil {
		return 0, err
	}
	return n + len(frame), nil
}

// Broadcast implements msgnet.Endpoint. Each peer's copy is encoded into
// its write buffer first and the buffers are flushed once per peer at
// the end, so an n-way broadcast costs one syscall per peer rather than
// one per encoded fragment. A copy that dies at flush time is a silent
// drop, same as any remote loss.
func (tr *Transport) Broadcast(payload any) error {
	for to := range tr.addrs {
		if err := tr.send(to, payload, false); err != nil {
			return fmt.Errorf("transport: broadcast: %w", err)
		}
	}
	tr.flushAll()
	return nil
}

// flushAll drains every buffered outbound connection, dropping the ones
// whose peer has gone away.
func (tr *Transport) flushAll() {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	for to, oc := range tr.conns {
		if oc.bw.Buffered() == 0 {
			continue
		}
		if err := oc.bw.Flush(); err != nil {
			_ = oc.conn.Close()
			delete(tr.conns, to)
		}
	}
}

// Recv implements msgnet.Endpoint.
func (tr *Transport) Recv(ctx context.Context) (msgnet.Message, error) {
	for {
		tr.mu.Lock()
		if len(tr.pending) > 0 {
			m := tr.pending[0]
			tr.pending = tr.pending[1:]
			tr.mu.Unlock()
			tr.rec.Deliver(tr.id, m.From, 0, m.Payload)
			return m, nil
		}
		closed := tr.closed
		tr.mu.Unlock()
		if closed {
			return msgnet.Message{}, msgnet.ErrClosed
		}
		select {
		case <-ctx.Done():
			return msgnet.Message{}, ctx.Err()
		case <-tr.notify:
		}
	}
}

// Close shuts the transport down: the listener stops, connections close,
// and blocked Recvs return msgnet.ErrClosed.
func (tr *Transport) Close() error {
	tr.mu.Lock()
	if tr.closed {
		tr.mu.Unlock()
		return nil
	}
	tr.closed = true
	for id, oc := range tr.conns {
		_ = oc.conn.Close()
		delete(tr.conns, id)
	}
	for conn := range tr.inbound {
		_ = conn.Close()
	}
	tr.mu.Unlock()
	err := tr.ln.Close()
	tr.wake()
	tr.wg.Wait()
	return err
}

func (tr *Transport) wake() {
	select {
	case tr.notify <- struct{}{}:
	default:
	}
}

func (tr *Transport) deliver(m msgnet.Message) {
	tr.mu.Lock()
	if tr.closed {
		tr.mu.Unlock()
		return
	}
	tr.pending = append(tr.pending, m)
	tr.mu.Unlock()
	tr.wake()
}

// connLocked returns the outbound connection to peer, dialing if needed.
// A fresh connection's preamble is buffered ahead of the first message,
// so it costs no extra syscall.
func (tr *Transport) connLocked(to int) (*outConn, error) {
	if oc, ok := tr.conns[to]; ok {
		return oc, nil
	}
	conn, err := net.Dial("tcp", tr.addrs[to])
	if err != nil {
		return nil, fmt.Errorf("transport: dial node %d (%s): %w", to, tr.addrs[to], err)
	}
	bw := bufio.NewWriterSize(conn, outBufSize)
	_ = bw.WriteByte(preambleBinary)
	// The sender id never changes on a connection, so it rides in the
	// preamble rather than in every frame.
	_, _ = bw.Write(bin.AppendVarint(nil, int64(tr.id)))
	oc := &outConn{conn: conn, bw: bw, scratch: make([]byte, 0, 4096)}
	tr.conns[to] = oc
	return oc, nil
}

func (tr *Transport) acceptLoop() {
	defer tr.wg.Done()
	for {
		conn, err := tr.ln.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return
			}
			tr.mu.Lock()
			closed := tr.closed
			tr.mu.Unlock()
			if closed {
				return
			}
			continue
		}
		tr.mu.Lock()
		if tr.closed {
			tr.mu.Unlock()
			_ = conn.Close()
			return
		}
		tr.inbound[conn] = struct{}{}
		tr.mu.Unlock()
		tr.wg.Add(1)
		go tr.readLoop(conn)
	}
}

// readLoop decodes one inbound connection until it dies.
func (tr *Transport) readLoop(conn net.Conn) {
	defer tr.wg.Done()
	defer func() {
		_ = conn.Close()
		tr.mu.Lock()
		delete(tr.inbound, conn)
		tr.mu.Unlock()
	}()
	br := bufio.NewReaderSize(conn, outBufSize)
	if pre, err := br.ReadByte(); err != nil || pre != preambleBinary {
		// Unknown preamble: a foreign client or protocol mismatch.
		return
	}
	from64, err := binary.ReadVarint(br)
	if err != nil {
		return
	}
	from := int(from64)
	var dec codec.Decoder
	var buf []byte
	for {
		n, err := binary.ReadUvarint(br)
		if err != nil || n > maxFrame {
			return
		}
		if int(n) > cap(buf) {
			buf = make([]byte, n)
		}
		buf = buf[:n]
		if _, err := io.ReadFull(br, buf); err != nil {
			return
		}
		payload, err := dec.Decode(buf)
		if err != nil {
			// A frame that fails to decode poisons the stream offset no
			// further (frames are length-delimited), but it means the
			// peer speaks a different version — drop the connection and
			// let it redial.
			return
		}
		tr.decBytes.Add(tr.id, int64(n))
		tr.deliver(msgnet.Message{From: from, To: tr.id, Payload: payload})
	}
}
