package transport

import (
	"context"
	"errors"
	"io"
	"net"
	"reflect"
	"testing"
	"time"

	"ooc/internal/metrics"
	"ooc/internal/msgnet"
	"ooc/internal/raft"
	"ooc/internal/trace"
)

func exchange(t *testing.T, trs []*Transport, payload any) any {
	t.Helper()
	if err := trs[0].Send(1, payload); err != nil {
		t.Fatal(err)
	}
	m, err := trs[1].Recv(ctxT(t))
	if err != nil {
		t.Fatal(err)
	}
	return m.Payload
}

// TestCodecInterop round-trips a full AppendEntries between two
// transports over TCP.
func TestCodecInterop(t *testing.T) {
	msg := raft.AppendEntries{
		Term: 3, LeaderID: 0, PrevLogIndex: 5, PrevLogTerm: 2,
		Entries:      []raft.Entry{{Term: 3, Command: raft.KVCommand{Op: "set", Key: "k", Value: "v"}}},
		LeaderCommit: 4, ReadID: 9,
	}
	t.Run("binary-to-binary", func(t *testing.T) {
		trs := localCluster(t, 2)
		if got := exchange(t, trs, msg); !reflect.DeepEqual(got, msg) {
			t.Fatalf("got %#v, want %#v", got, msg)
		}
	})
}

// TestUnknownPreambleRejected: a connection that does not open with the
// 'B' preamble is a foreign client; the transport closes it without
// delivering anything.
func TestUnknownPreambleRejected(t *testing.T) {
	trs := localCluster(t, 2)
	conn, err := net.Dial("tcp", trs[1].Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("GET / HTTP/1.0\r\n\r\n")); err != nil {
		t.Fatal(err)
	}
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := conn.Read(make([]byte, 1)); !errors.Is(err, io.EOF) {
		t.Fatalf("read after a foreign preamble = %v, want EOF (connection closed)", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if m, err := trs[1].Recv(ctx); err == nil {
		t.Fatalf("foreign connection delivered %#v", m)
	}
}

func TestCodecCarriesMuxWrapper(t *testing.T) {
	trs := localCluster(t, 2)
	msg := msgnet.Tagged{Channel: "shard/2", Payload: raft.RequestVote{Term: 7, CandidateID: 1}}
	if got := exchange(t, trs, msg); !reflect.DeepEqual(got, msg) {
		t.Fatalf("got %#v, want %#v", got, msg)
	}
}

func TestCodecForeignPayloadFallsBackToGob(t *testing.T) {
	// A payload outside the codec's native set still crosses the wire
	// (inside a gob-fallback frame); it only needs Register, exactly as
	// the old transport did.
	trs := localCluster(t, 2)
	if got := exchange(t, trs, "plain string"); got != "plain string" {
		t.Fatalf("got %#v", got)
	}
	if got := exchange(t, trs, 42); got != 42 {
		t.Fatalf("got %#v", got)
	}
}

func TestCodecMetricsCountWireBytes(t *testing.T) {
	reg := metrics.NewRegistry()
	trs := localCluster(t, 2, WithMetrics(reg))
	msg := raft.AppendEntriesReply{Term: 3, Success: true, MatchIndex: 12}
	if got := exchange(t, trs, msg); !reflect.DeepEqual(got, msg) {
		t.Fatalf("got %#v", got)
	}
	enc := reg.Counter("codec_encode_bytes_total").Value()
	dec := reg.Counter("codec_decode_bytes_total").Value()
	if enc == 0 {
		t.Fatal("codec_encode_bytes_total did not count the send")
	}
	if dec == 0 {
		t.Fatal("codec_decode_bytes_total did not count the receive")
	}
	// The encode side counts frame + length header; decode counts the
	// frame alone, so encode is strictly larger but by only a few bytes.
	if dec >= enc || enc-dec > 8 {
		t.Fatalf("enc=%d dec=%d: expected dec < enc <= dec+8", enc, dec)
	}
}

func TestBinarySendsRecordWireBytes(t *testing.T) {
	rec := trace.NewRecorder()
	trs := localCluster(t, 2, WithRecorder(rec))
	msg := raft.RequestVote{Term: 2, CandidateID: 0, LastLogIndex: 3, LastLogTerm: 1}
	if got := exchange(t, trs, msg); !reflect.DeepEqual(got, msg) {
		t.Fatalf("got %#v", got)
	}
	var sendBytes int
	for _, ev := range rec.Snapshot().Events {
		if ev.Kind == trace.KindSend && ev.Node == 0 {
			sendBytes += ev.Bytes
		}
	}
	if sendBytes == 0 {
		t.Fatal("binary send recorded no wire bytes in the trace")
	}
}
