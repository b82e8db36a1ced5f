// Package codec is the hand-rolled binary wire format for the repo's
// message traffic: every raft.WireTypes message plus the msgnet mux
// wrapper encodes as a compact length-free frame of varints — no type
// metadata, no reflection — with an explicit version byte so the layout
// can evolve (DESIGN.md §3.5). Encoding is append-style into a
// caller-owned buffer and performs zero heap allocations in steady
// state; decoding amortizes through a reusable Decoder. Types the codec
// does not know natively (e.g. the benor package's messages, or
// application-defined commands) ride through a gob-encoded fallback
// frame: anything transport.Register-ed crosses the wire.
//
// Frame layout (the body of a transport frame or a storage record —
// outer length prefixes and checksums belong to those layers):
//
//	[Version byte][type tag byte][tag-specific body]
//
// Integers are zigzag varints, strings are [uvarint len][bytes], byte
// slices are [uvarint len+1][bytes] with 0 meaning nil (see
// internal/codec/bin). Tag values are wire format: new types append,
// existing tags are never renumbered.
package codec

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"sync"

	"ooc/internal/codec/bin"
	"ooc/internal/msgnet"
	"ooc/internal/raft"
)

// Version leads every untraced frame. A decoder accepts versions it
// knows and rejects the rest; additive format changes bump it rather
// than silently shifting field offsets.
const Version = 1

// VersionTraced frames carry a per-request trace ID (internal/rtrace)
// between the version byte and the type tag:
//
//	[2][uvarint trace id][type tag byte][body]
//
// Untraced messages keep emitting Version-1 frames byte-identical to
// the previous release, so a trace-enabled sender only speaks version 2
// on the (sampled) messages that need it and old peers keep decoding
// everything else. Peers that must never see version 2 at all are
// pinned with transport.WithMaxFrameVersion (DESIGN §3.6).
const VersionTraced = 2

// MaxVersion is the highest frame version this build emits and accepts.
const MaxVersion = VersionTraced

// Type tags. Wire format — never renumber; new message types append.
const (
	tRequestVote        = 1
	tRequestVoteReply   = 2
	tPreVote            = 3
	tPreVoteReply       = 4
	tAppendEntries      = 5
	tAppendEntriesReply = 6
	tReadIndexRequest   = 7
	tReadIndexReply     = 8 // pre-PR9 layout, decode-only (no LeaderID field)
	tInstallSnapshot    = 9
	tReadIndexReply2    = 10 // adds trailing LeaderID
	tTagged             = 20 // msgnet.Tagged: [string channel][nested frame body]
	tGob                = 31 // foreign payload: [bytes gob blob]
)

// Append appends the frame for msg — version byte, type tag, body — and
// returns the extended buffer. For the known message set this is
// allocation-free once dst has warmed to steady-state capacity; foreign
// types pay a gob encode inside the frame.
//
// A msgnet.Traced wrapper (top level or directly inside msgnet.Tagged)
// is hoisted into the frame header: the frame becomes VersionTraced and
// the trace ID rides as a header uvarint, never as an encoded wrapper
// type. Everything else emits Version 1, byte-identical to before the
// trace field existed.
func Append(dst []byte, msg any) ([]byte, error) {
	return AppendMax(dst, msg, MaxVersion)
}

// AppendMax is Append with a frame-version ceiling. maxVersion below
// VersionTraced strips trace wrappers instead of encoding them — the
// rolling-upgrade path for peers that reject unknown versions.
func AppendMax(dst []byte, msg any, maxVersion byte) ([]byte, error) {
	id, inner := hoistTrace(msg)
	if id != 0 && maxVersion >= VersionTraced {
		dst = append(dst, VersionTraced)
		dst = bin.AppendUvarint(dst, id)
		return appendBody(dst, inner)
	}
	dst = append(dst, Version)
	return appendBody(dst, inner)
}

// hoistTrace extracts the trace ID a payload carries, returning the
// payload with the wrapper removed. Only the two shapes the stack
// produces are recognized: Traced{msg} and Tagged{ch, Traced{msg}}.
func hoistTrace(msg any) (uint64, any) {
	switch m := msg.(type) {
	case msgnet.Traced:
		return m.ID, m.Payload
	case msgnet.Tagged:
		if t, ok := m.Payload.(msgnet.Traced); ok {
			return t.ID, msgnet.Tagged{Channel: m.Channel, Payload: t.Payload}
		}
	}
	return 0, msg
}

// rewrapTrace reverses hoistTrace after decode so receivers see the
// same shape the sender handed to Append.
func rewrapTrace(msg any, id uint64) any {
	if t, ok := msg.(msgnet.Tagged); ok {
		return msgnet.Tagged{Channel: t.Channel, Payload: msgnet.Traced{ID: id, Payload: t.Payload}}
	}
	return msgnet.Traced{ID: id, Payload: msg}
}

func appendBody(dst []byte, msg any) ([]byte, error) {
	switch m := msg.(type) {
	case raft.RequestVote:
		dst = append(dst, tRequestVote)
		dst = bin.AppendInt(dst, m.Term)
		dst = bin.AppendInt(dst, m.CandidateID)
		dst = bin.AppendInt(dst, m.LastLogIndex)
		return bin.AppendInt(dst, m.LastLogTerm), nil
	case raft.RequestVoteReply:
		dst = append(dst, tRequestVoteReply)
		dst = bin.AppendInt(dst, m.Term)
		return bin.AppendBool(dst, m.VoteGranted), nil
	case raft.PreVote:
		dst = append(dst, tPreVote)
		dst = bin.AppendInt(dst, m.Term)
		dst = bin.AppendInt(dst, m.CandidateID)
		dst = bin.AppendInt(dst, m.LastLogIndex)
		return bin.AppendInt(dst, m.LastLogTerm), nil
	case raft.PreVoteReply:
		dst = append(dst, tPreVoteReply)
		dst = bin.AppendInt(dst, m.Term)
		return bin.AppendBool(dst, m.Granted), nil
	case raft.AppendEntries:
		dst = append(dst, tAppendEntries)
		dst = bin.AppendInt(dst, m.Term)
		dst = bin.AppendInt(dst, m.LeaderID)
		dst = bin.AppendInt(dst, m.PrevLogIndex)
		dst = bin.AppendInt(dst, m.PrevLogTerm)
		dst = bin.AppendInt(dst, m.LeaderCommit)
		dst = bin.AppendInt(dst, m.ReadID)
		return raft.AppendWireEntries(dst, m.Entries)
	case raft.AppendEntriesReply:
		dst = append(dst, tAppendEntriesReply)
		dst = bin.AppendInt(dst, m.Term)
		dst = bin.AppendBool(dst, m.Success)
		dst = bin.AppendInt(dst, m.MatchIndex)
		dst = bin.AppendInt(dst, m.RejectHint)
		return bin.AppendInt(dst, m.ReadID), nil
	case raft.ReadIndexRequest:
		dst = append(dst, tReadIndexRequest)
		dst = bin.AppendInt(dst, m.Term)
		dst = bin.AppendVarint(dst, m.ID)
		return bin.AppendBool(dst, m.Lease), nil
	case raft.ReadIndexReply:
		dst = append(dst, tReadIndexReply2)
		dst = bin.AppendInt(dst, m.Term)
		dst = bin.AppendVarint(dst, m.ID)
		dst = bin.AppendInt(dst, m.Index)
		dst = bin.AppendBool(dst, m.Success)
		dst = bin.AppendBool(dst, m.Lease)
		return bin.AppendInt(dst, m.LeaderID), nil
	case raft.InstallSnapshot:
		dst = append(dst, tInstallSnapshot)
		dst = bin.AppendInt(dst, m.Term)
		dst = bin.AppendInt(dst, m.LeaderID)
		dst = bin.AppendInt(dst, m.LastIncludedIndex)
		dst = bin.AppendInt(dst, m.LastIncludedTerm)
		return bin.AppendBytes(dst, m.Data), nil
	case msgnet.Tagged:
		// The mux wrapper nests: the inner payload is a full body (tag +
		// fields) without a repeated version byte.
		dst = append(dst, tTagged)
		dst = bin.AppendString(dst, m.Channel)
		return appendBody(dst, m.Payload)
	default:
		// Foreign payload: gob inside the frame. The type must be
		// registered on both sides (transport.Register); it pays gob's
		// cost while the known message set does not.
		var buf bytes.Buffer
		boxed := msg
		if err := gob.NewEncoder(&buf).Encode(&boxed); err != nil {
			return dst, fmt.Errorf("codec: encode %T: %w", msg, err)
		}
		return bin.AppendBytes(append(dst, tGob), buf.Bytes()), nil
	}
}

// A Decoder decodes frames, amortizing allocations across messages: log
// entry strings and commands intern through the embedded
// raft.EntryDecoder. A zero Decoder is ready to use; it is not safe for
// concurrent use — give each receive loop its own.
type Decoder struct {
	ents raft.EntryDecoder
}

// Decode parses one frame and returns the boxed message. Entry slices
// in an AppendEntries are freshly allocated — the caller (a raft node
// appending them to its log) owns them outright.
func (d *Decoder) Decode(frame []byte) (any, error) {
	r := bin.NewReader(frame)
	traceID, err := readHeader(r)
	if err != nil {
		return nil, err
	}
	msg, err := d.readBody(r)
	if err != nil {
		return nil, err
	}
	if r.Len() != 0 {
		return nil, fmt.Errorf("codec: %d trailing bytes after frame", r.Len())
	}
	if traceID != 0 {
		msg = rewrapTrace(msg, traceID)
	}
	return msg, nil
}

// readHeader consumes the version byte (and, for VersionTraced frames,
// the trace ID uvarint), leaving r at the type tag.
func readHeader(r *bin.Reader) (uint64, error) {
	v := r.Byte()
	if r.Err() != nil {
		return 0, r.Err()
	}
	switch v {
	case Version:
		return 0, nil
	case VersionTraced:
		id := r.Uvarint()
		return id, r.Err()
	default:
		return 0, fmt.Errorf("codec: unsupported frame version %d", v)
	}
}

func (d *Decoder) readBody(r *bin.Reader) (any, error) {
	tag := r.Byte()
	if err := r.Err(); err != nil {
		return nil, err
	}
	switch tag {
	case tRequestVote:
		m := raft.RequestVote{Term: r.Int(), CandidateID: r.Int(), LastLogIndex: r.Int(), LastLogTerm: r.Int()}
		return m, r.Err()
	case tRequestVoteReply:
		m := raft.RequestVoteReply{Term: r.Int(), VoteGranted: r.Bool()}
		return m, r.Err()
	case tPreVote:
		m := raft.PreVote{Term: r.Int(), CandidateID: r.Int(), LastLogIndex: r.Int(), LastLogTerm: r.Int()}
		return m, r.Err()
	case tPreVoteReply:
		m := raft.PreVoteReply{Term: r.Int(), Granted: r.Bool()}
		return m, r.Err()
	case tAppendEntries:
		var m raft.AppendEntries
		err := d.readAppendEntries(r, &m, nil)
		return m, err
	case tAppendEntriesReply:
		m := raft.AppendEntriesReply{Term: r.Int(), Success: r.Bool(), MatchIndex: r.Int(), RejectHint: r.Int(), ReadID: r.Int()}
		return m, r.Err()
	case tReadIndexRequest:
		m := raft.ReadIndexRequest{Term: r.Int(), ID: r.Varint(), Lease: r.Bool()}
		return m, r.Err()
	case tReadIndexReply:
		// Old layout from a pre-PR9 peer: no LeaderID on the wire. -1
		// means "unknown" to the raft layer; the zero value would name
		// node 0.
		m := raft.ReadIndexReply{Term: r.Int(), ID: r.Varint(), Index: r.Int(), Success: r.Bool(), Lease: r.Bool(), LeaderID: -1}
		return m, r.Err()
	case tReadIndexReply2:
		m := raft.ReadIndexReply{Term: r.Int(), ID: r.Varint(), Index: r.Int(), Success: r.Bool(), Lease: r.Bool(), LeaderID: r.Int()}
		return m, r.Err()
	case tInstallSnapshot:
		m := raft.InstallSnapshot{Term: r.Int(), LeaderID: r.Int(), LastIncludedIndex: r.Int(), LastIncludedTerm: r.Int(), Data: r.Bytes()}
		return m, r.Err()
	case tTagged:
		ch := r.String()
		if err := r.Err(); err != nil {
			return nil, err
		}
		inner, err := d.readBody(r)
		if err != nil {
			return nil, err
		}
		return msgnet.Tagged{Channel: ch, Payload: inner}, nil
	case tGob:
		blob := r.BytesView()
		if err := r.Err(); err != nil {
			return nil, err
		}
		var v any
		if err := gob.NewDecoder(bytes.NewReader(blob)).Decode(&v); err != nil {
			return nil, fmt.Errorf("codec: decode gob frame: %w", err)
		}
		return v, nil
	default:
		return nil, fmt.Errorf("codec: unknown type tag %d", tag)
	}
}

func (d *Decoder) readAppendEntries(r *bin.Reader, m *raft.AppendEntries, reuse []raft.Entry) error {
	m.Term = r.Int()
	m.LeaderID = r.Int()
	m.PrevLogIndex = r.Int()
	m.PrevLogTerm = r.Int()
	m.LeaderCommit = r.Int()
	m.ReadID = r.Int()
	var err error
	m.Entries, err = d.ents.ReadEntries(r, reuse)
	if err != nil {
		return err
	}
	return r.Err()
}

// DecodeAppendEntriesInto is the allocation-free fast path for the
// dominant replication message: it decodes frame into *m, reusing
// reuse's backing array for the entry slice. With interned commands and
// a warmed reuse slice, steady-state decode performs zero heap
// allocations — this is the path the codec micro-benchmarks pin.
// Callers own the lifecycle: the entries alias reuse, so hand the slice
// back only after the previous message is fully consumed.
func (d *Decoder) DecodeAppendEntriesInto(frame []byte, m *raft.AppendEntries, reuse []raft.Entry) error {
	r := bin.NewReader(frame)
	if _, err := readHeader(r); err != nil {
		return err
	}
	if tag := r.Byte(); tag != tAppendEntries {
		if r.Err() != nil {
			return r.Err()
		}
		return fmt.Errorf("codec: frame tag %d is not AppendEntries", tag)
	}
	return d.readAppendEntries(r, m, reuse)
}

// bufPool recycles frame buffers across sends: a transport grabs a
// buffer, appends the frame, writes it out, and returns it. Pooling a
// pointer-to-slice (not the slice) keeps the Put side allocation-free.
var bufPool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 4096)
		return &b
	},
}

// GetBuf returns a pooled buffer with length 0 and warm capacity.
func GetBuf() *[]byte {
	b := bufPool.Get().(*[]byte)
	*b = (*b)[:0]
	return b
}

// PutBuf returns a buffer to the pool. Oversized buffers (a snapshot
// transfer, a huge batch) are dropped rather than pinned forever.
func PutBuf(b *[]byte) {
	if cap(*b) > 1<<20 {
		return
	}
	bufPool.Put(b)
}
