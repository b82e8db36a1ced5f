package codec

import (
	"encoding/gob"
	"fmt"
	"reflect"
	"testing"

	"ooc/internal/codec/bin"
	"ooc/internal/msgnet"
	"ooc/internal/raft"
)

type foreignMsg struct {
	Round int
	Est   []int
}

func init() {
	gob.Register(foreignMsg{})
	for _, wt := range raft.WireTypes() {
		gob.Register(wt)
	}
	for _, wt := range msgnet.WireTypes() {
		gob.Register(wt)
	}
}

func wireMessages() []any {
	return []any{
		raft.RequestVote{Term: 3, CandidateID: 1, LastLogIndex: 10, LastLogTerm: 2},
		raft.RequestVoteReply{Term: 3, VoteGranted: true},
		raft.PreVote{Term: 4, CandidateID: 2, LastLogIndex: 11, LastLogTerm: 3},
		raft.PreVoteReply{Term: 4, Granted: false},
		raft.AppendEntries{
			Term: 5, LeaderID: 0, PrevLogIndex: 9, PrevLogTerm: 4,
			Entries: []raft.Entry{
				{Term: 5, Command: raft.KVCommand{Op: "set", Key: "k", Value: "v"}},
				{Term: 5, Command: raft.Noop{}},
				{Term: 5, Command: raft.DS{Value: "decided"}},
			},
			LeaderCommit: 8, ReadID: 41,
		},
		raft.AppendEntries{Term: 5, LeaderID: 0, PrevLogIndex: 12, PrevLogTerm: 5, LeaderCommit: 12, ReadID: 42}, // heartbeat
		raft.AppendEntriesReply{Term: 5, Success: true, MatchIndex: 12, RejectHint: 0, ReadID: 42},
		raft.AppendEntriesReply{Term: 5, Success: false, MatchIndex: 0, RejectHint: 7},
		raft.ReadIndexRequest{Term: 5, ID: 77, Lease: true},
		raft.ReadIndexReply{Term: 5, ID: 77, Index: 12, Success: true, Lease: true, LeaderID: 2},
		raft.ReadIndexReply{Term: 6, ID: 78, Success: false, LeaderID: -1}, // refusal with no known leader
		raft.InstallSnapshot{Term: 6, LeaderID: 2, LastIncludedIndex: 100, LastIncludedTerm: 5, Data: []byte("snap")},
		raft.InstallSnapshot{Term: 6, LeaderID: 2, LastIncludedIndex: 100, LastIncludedTerm: 5}, // nil data
		msgnet.Tagged{Channel: "shard/3", Payload: raft.RequestVote{Term: 2, CandidateID: 1}},
		msgnet.Tagged{Channel: "shard/0", Payload: raft.AppendEntries{
			Term: 1, Entries: []raft.Entry{{Term: 1, Command: raft.KVCommand{Op: "get", Key: "x"}}},
		}},
		foreignMsg{Round: 9, Est: []int{0, 1}}, // gob fallback
		msgnet.Tagged{Channel: "benor/1", Payload: foreignMsg{Round: 2}},
	}
}

func TestFrameRoundTripAllWireTypes(t *testing.T) {
	var dec Decoder
	for i, msg := range wireMessages() {
		frame, err := Append(nil, msg)
		if err != nil {
			t.Fatalf("case %d (%T): encode: %v", i, msg, err)
		}
		got, err := dec.Decode(frame)
		if err != nil {
			t.Fatalf("case %d (%T): decode: %v", i, msg, err)
		}
		if !reflect.DeepEqual(got, msg) {
			t.Fatalf("case %d: round trip = %#v, want %#v", i, got, msg)
		}
	}
}

func TestDecodeRejectsBadFrames(t *testing.T) {
	var dec Decoder
	good, err := Append(nil, raft.RequestVoteReply{Term: 1, VoteGranted: true})
	if err != nil {
		t.Fatal(err)
	}

	cases := map[string][]byte{
		"empty":            {},
		"bad version":      {99, tRequestVote, 2, 2, 2, 2},
		"unknown tag":      {Version, 29},
		"truncated body":   good[:len(good)-1],
		"trailing bytes":   append(append([]byte{}, good...), 0xFF),
		"huge entry count": {Version, tAppendEntries, 0, 0, 0, 0, 0, 0, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F},
	}
	for name, frame := range cases {
		if _, err := dec.Decode(frame); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}
}

func TestDecodeMatchesGobOracle(t *testing.T) {
	// Differential check: everything the codec round-trips must equal
	// what a gob round trip of the same value produces (encoding/gob is
	// the codec-level oracle, alongside the fuzz corpora).
	for i, msg := range wireMessages() {
		frame, err := Append(nil, msg)
		if err != nil {
			t.Fatal(err)
		}
		var dec Decoder
		viaCodec, err := dec.Decode(frame)
		if err != nil {
			t.Fatal(err)
		}
		viaGob := gobRoundTrip(t, msg)
		if !reflect.DeepEqual(viaCodec, viaGob) {
			t.Fatalf("case %d (%T): codec %#v != gob %#v", i, msg, viaCodec, viaGob)
		}
	}
}

func gobRoundTrip(t *testing.T, msg any) any {
	t.Helper()
	buf := GetBuf()
	defer PutBuf(buf)
	w := writerTo{buf}
	if err := gob.NewEncoder(w).Encode(&msg); err != nil {
		t.Fatal(err)
	}
	var v any
	if err := gob.NewDecoder(readerFrom{buf, new(int)}).Decode(&v); err != nil {
		t.Fatal(err)
	}
	return v
}

type writerTo struct{ b *[]byte }

func (w writerTo) Write(p []byte) (int, error) { *w.b = append(*w.b, p...); return len(p), nil }

type readerFrom struct {
	b   *[]byte
	off *int
}

func (r readerFrom) Read(p []byte) (int, error) {
	if *r.off >= len(*r.b) {
		return 0, fmt.Errorf("EOF")
	}
	n := copy(p, (*r.b)[*r.off:])
	*r.off += n
	return n, nil
}

func TestEncodeZeroAlloc(t *testing.T) {
	// Steady-state replication traffic — AppendEntries with entries,
	// heartbeats, replies, and the mux-wrapped variants — must encode
	// without heap allocation once the buffer is warm.
	msgs := []any{
		raft.AppendEntries{
			Term: 5, LeaderID: 0, PrevLogIndex: 9, PrevLogTerm: 4,
			Entries:      []raft.Entry{{Term: 5, Command: raft.KVCommand{Op: "set", Key: "k", Value: "v"}}},
			LeaderCommit: 8, ReadID: 41,
		},
		raft.AppendEntries{Term: 5, LeaderID: 0, PrevLogIndex: 12, PrevLogTerm: 5, LeaderCommit: 12},
		raft.AppendEntriesReply{Term: 5, Success: true, MatchIndex: 12},
		raft.RequestVote{Term: 3, CandidateID: 1},
		msgnet.Tagged{Channel: "shard/1", Payload: raft.AppendEntriesReply{Term: 5, Success: true}},
	}
	for _, msg := range msgs {
		msg := msg
		dst := make([]byte, 0, 1024)
		var err error
		allocs := testing.AllocsPerRun(100, func() {
			dst, err = Append(dst[:0], msg)
		})
		if err != nil {
			t.Fatal(err)
		}
		if allocs != 0 {
			t.Errorf("%T: encode allocates %.1f/op; want 0", msg, allocs)
		}
	}
}

func TestDecodeAppendEntriesIntoZeroAlloc(t *testing.T) {
	frame, err := Append(nil, raft.AppendEntries{
		Term: 5, LeaderID: 0, PrevLogIndex: 9, PrevLogTerm: 4,
		Entries: []raft.Entry{
			{Term: 5, Command: raft.KVCommand{Op: "set", Key: "hot", Value: "v1"}},
			{Term: 5, Command: raft.KVCommand{Op: "set", Key: "hot", Value: "v2"}},
		},
		LeaderCommit: 8, ReadID: 41,
	})
	if err != nil {
		t.Fatal(err)
	}
	var dec Decoder
	var m raft.AppendEntries
	if err := dec.DecodeAppendEntriesInto(frame, &m, nil); err != nil {
		t.Fatal(err)
	}
	reuse := m.Entries
	allocs := testing.AllocsPerRun(100, func() {
		if err = dec.DecodeAppendEntriesInto(frame, &m, reuse); err == nil {
			reuse = m.Entries
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if allocs != 0 {
		t.Fatalf("steady-state AppendEntries decode allocates %.1f/op; want 0", allocs)
	}
}

func TestBufPool(t *testing.T) {
	b := GetBuf()
	*b = append(*b, make([]byte, 2<<20)...) // oversize: must not be pooled
	PutBuf(b)
	c := GetBuf()
	if cap(*c) > 1<<20 {
		t.Fatal("oversized buffer returned to pool")
	}
	if len(*c) != 0 {
		t.Fatal("pooled buffer not reset to length 0")
	}
	PutBuf(c)
}

// TestReadIndexReplyLegacyFrameDecodes pins the ReadIndexReply upgrade
// seam: a pre-LeaderID peer emits the old tag with no trailing field,
// and the decoder must map it to LeaderID -1 ("unknown") — the zero
// value would silently name node 0 as the leader.
func TestReadIndexReplyLegacyFrameDecodes(t *testing.T) {
	frame := []byte{Version, tReadIndexReply}
	frame = bin.AppendInt(frame, 5)
	frame = bin.AppendVarint(frame, 77)
	frame = bin.AppendInt(frame, 12)
	frame = bin.AppendBool(frame, true)
	frame = bin.AppendBool(frame, false)
	var dec Decoder
	got, err := dec.Decode(frame)
	if err != nil {
		t.Fatalf("legacy frame: %v", err)
	}
	want := raft.ReadIndexReply{Term: 5, ID: 77, Index: 12, Success: true, Lease: false, LeaderID: -1}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("legacy decode = %#v, want %#v", got, want)
	}
	// The current encoder always emits the new tag, round-tripping the
	// hint verbatim.
	neu, err := Append(nil, want)
	if err != nil {
		t.Fatal(err)
	}
	if neu[1] != tReadIndexReply2 {
		t.Fatalf("encoder emitted tag %d, want %d", neu[1], tReadIndexReply2)
	}
	back, err := dec.Decode(neu)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, want) {
		t.Fatalf("new-tag round trip = %#v, want %#v", back, want)
	}
}
