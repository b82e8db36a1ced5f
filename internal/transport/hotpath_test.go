package transport

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"io"
	"testing"

	"ooc/internal/codec"
	"ooc/internal/msgnet"
	"ooc/internal/raft"
)

// TestEncodeTaggedReplyZeroAlloc gates the send-side framing: with a
// warm scratch buffer, framing a mux-tagged reply — length prefix and
// body — into the peer's buffered writer allocates nothing.
func TestEncodeTaggedReplyZeroAlloc(t *testing.T) {
	tr := &Transport{maxVer: codec.MaxVersion}
	oc := &outConn{bw: bufio.NewWriterSize(io.Discard, outBufSize), scratch: make([]byte, 0, 4096)}
	var payload any = msgnet.Tagged{Channel: "shard/1", Payload: raft.AppendEntriesReply{Term: 5, Success: true, MatchIndex: 12}}
	want, err := codec.Append(nil, payload)
	if err != nil {
		t.Fatal(err)
	}
	var n int
	allocs := testing.AllocsPerRun(100, func() {
		n, err = tr.encodeLocked(oc, payload)
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != 1+len(want) { // a one-byte uvarint length prefix, then the frame
		t.Fatalf("framed %d bytes, want %d", n, 1+len(want))
	}
	if allocs != 0 {
		t.Fatalf("encodeLocked allocates %.1f/op; want 0", allocs)
	}
}

// TestEncodeLockedFraming checks the frame written into the reserved
// header gap decodes back to the message, for bodies whose length
// prefix takes one byte and more than one.
func TestEncodeLockedFraming(t *testing.T) {
	for _, size := range []int{0, 127, 128, 70000} {
		tr := &Transport{maxVer: codec.MaxVersion}
		var out bytes.Buffer
		oc := &outConn{bw: bufio.NewWriterSize(&out, outBufSize)}
		msg := raft.InstallSnapshot{Term: 2, LeaderID: 1, LastIncludedIndex: 9, Data: make([]byte, size)}
		if _, err := tr.encodeLocked(oc, msg); err != nil {
			t.Fatal(err)
		}
		if err := oc.bw.Flush(); err != nil {
			t.Fatal(err)
		}
		br := bufio.NewReader(&out)
		n, err := binary.ReadUvarint(br)
		if err != nil {
			t.Fatal(err)
		}
		frame := make([]byte, n)
		if _, err := io.ReadFull(br, frame); err != nil {
			t.Fatal(err)
		}
		var dec codec.Decoder
		got, err := dec.Decode(frame)
		if err != nil {
			t.Fatalf("size %d: %v", size, err)
		}
		if is, ok := got.(raft.InstallSnapshot); !ok || len(is.Data) != size || is.LastIncludedIndex != 9 {
			t.Fatalf("size %d: decoded %T", size, got)
		}
		if rest, _ := io.ReadAll(br); len(rest) != 0 {
			t.Fatalf("size %d: %d trailing bytes", size, len(rest))
		}
	}
}

// TestDeliverRecvZeroAlloc gates the inbound queue: a steady
// deliver→Recv cycle reuses the pending array instead of growing a new
// one each time it drains, and a queue that never drains stays as big
// as its backlog.
func TestDeliverRecvZeroAlloc(t *testing.T) {
	tr := localCluster(t, 1)[0]
	ctx := context.Background()
	var payload any = raft.AppendEntriesReply{Term: 5, Success: true}
	m := msgnet.Message{From: 0, To: 0, Payload: payload}
	allocs := testing.AllocsPerRun(1000, func() {
		tr.deliver(m)
		if _, err := tr.Recv(ctx); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("deliver→Recv allocates %.1f/op; want 0", allocs)
	}

	tr.deliver(m) // a standing backlog of one: the queue never drains
	for i := 0; i < 10000; i++ {
		tr.deliver(msgnet.Message{From: i, Payload: payload})
		if _, err := tr.Recv(ctx); err != nil {
			t.Fatal(err)
		}
	}
	if c := cap(tr.pending); c > 8 {
		t.Fatalf("a backlog of 1–2 messages grew the array to %d slots", c)
	}
	if last, _ := tr.Recv(ctx); last.From != 9999 {
		t.Fatalf("last message is from %d, want 9999", last.From)
	}
}

// BenchmarkMuxLoopback is one message-path round trip between two
// nodes: a mux channel send, the transport's framing and TCP loopback,
// the peer's decode and mux dispatch, and the same back.
func BenchmarkMuxLoopback(b *testing.B) {
	trs, err := NewLocalCluster(2)
	if err != nil {
		b.Fatal(err)
	}
	defer func() {
		for _, tr := range trs {
			_ = tr.Close()
		}
	}()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	a := msgnet.NewMux(ctx, trs[0]).Channel("shard/1")
	z := msgnet.NewMux(ctx, trs[1]).Channel("shard/1")
	var ping any = raft.AppendEntriesReply{Term: 3, Success: true, MatchIndex: 42}
	roundTrip := func() {
		if err := a.Send(1, ping); err != nil {
			b.Fatal(err)
		}
		m, err := z.Recv(ctx)
		if err != nil {
			b.Fatal(err)
		}
		if err := z.Send(0, m.Payload); err != nil {
			b.Fatal(err)
		}
		if _, err := a.Recv(ctx); err != nil {
			b.Fatal(err)
		}
	}
	roundTrip() // dial both connections
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		roundTrip()
	}
}
