package raft

import (
	"bytes"
	"encoding/gob"
	"fmt"

	"ooc/internal/codec/bin"
)

// This file is the binary codec for log entries and the commands inside
// them — the innermost layer of the hand-rolled wire/disk format
// (DESIGN.md §3.5). It lives in package raft because both consumers of
// entry encoding sit on opposite sides of an import boundary: the
// FileStorage record codec (this package) and the message codec
// (internal/codec, which imports this package). Entries encode as
//
//	[uvarint count] then per entry: [zigzag term][command]
//
// and a command is a one-byte tag followed by a tag-specific body. The
// known command kinds (Noop, KVCommand, D&S, plus the scalar value
// kinds D&S wraps) encode natively; anything else falls back to a
// gob-encoded blob (tag cmdGob), so applications with custom command
// types keep working — they pay gob's cost, the hot path does not.

// Command tags. New kinds append to the list; existing values are wire
// format and must never be renumbered (see the version rules in
// DESIGN.md §3.5).
const (
	cmdNil    = 0
	cmdNoop   = 1
	cmdKV     = 2
	cmdDS     = 3
	cmdBytes  = 4
	cmdString = 5
	cmdInt    = 6
	cmdInt64  = 7
	cmdBool   = 8
	cmdGob    = 15
)

// appendEntries appends the wire form of a log entry slice.
func appendEntries(dst []byte, es []Entry) ([]byte, error) {
	dst = bin.AppendUvarint(dst, uint64(len(es)))
	var err error
	for i := range es {
		dst = bin.AppendVarint(dst, int64(es[i].Term))
		if dst, err = appendCommand(dst, es[i].Command); err != nil {
			return dst, err
		}
	}
	return dst, nil
}

// AppendWireEntries is appendEntries for use by internal/codec.
func AppendWireEntries(dst []byte, es []Entry) ([]byte, error) {
	return appendEntries(dst, es)
}

// appendCommand appends one tagged command (or D&S value).
func appendCommand(dst []byte, cmd any) ([]byte, error) {
	switch v := cmd.(type) {
	case nil:
		return append(dst, cmdNil), nil
	case Noop:
		return append(dst, cmdNoop), nil
	case KVCommand:
		dst = append(dst, cmdKV)
		dst = bin.AppendString(dst, v.Op)
		dst = bin.AppendString(dst, v.Key)
		return bin.AppendString(dst, v.Value), nil
	case DS:
		dst = append(dst, cmdDS)
		return appendCommand(dst, v.Value)
	case []byte:
		return bin.AppendBytes(append(dst, cmdBytes), v), nil
	case string:
		return bin.AppendString(append(dst, cmdString), v), nil
	case int:
		return bin.AppendVarint(append(dst, cmdInt), int64(v)), nil
	case int64:
		return bin.AppendVarint(append(dst, cmdInt64), v), nil
	case bool:
		return bin.AppendBool(append(dst, cmdBool), v), nil
	default:
		// Foreign command type: gob inside the frame. The type must be
		// gob-registered on both sides (transport.Register). Copy to a
		// local before taking an address: &cmd would make the parameter
		// escape and charge every call — including the native fast paths
		// above — one heap-boxed interface.
		var buf bytes.Buffer
		boxed := cmd
		if err := gob.NewEncoder(&buf).Encode(&boxed); err != nil {
			return dst, fmt.Errorf("raft: encode command %T: %w", cmd, err)
		}
		return bin.AppendBytes(append(dst, cmdGob), buf.Bytes()), nil
	}
}

// internLimit bounds each interning table in an EntryDecoder. Real
// workloads draw ops and keys from small closed sets, so the tables hit
// constantly; once a table fills (an adversarially wide key space, or
// high-entropy values), insertion stops and decoding simply allocates
// for misses — the same cost as not interning at all.
const (
	internLimit   = 4096
	internMaxOver = 64 // don't intern strings longer than this
)

// EntryDecoder decodes entries and commands, amortizing steady-state
// allocations: repeated strings (ops, keys) intern to a single shared
// string, repeated KV commands intern to a single pre-boxed `any`, and
// the caller can recycle the decoded entry slice. A zero EntryDecoder is
// ready to use; it is not safe for concurrent use (give each decoding
// goroutine its own).
type EntryDecoder struct {
	strs map[string]string
	cmds map[KVCommand]any
}

// internString returns a stable string equal to b, reusing a previously
// decoded instance when possible. The map index with a string([]byte)
// key compiles to a no-allocation lookup, so steady-state hits are free.
func (d *EntryDecoder) internString(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	if s, ok := d.strs[string(b)]; ok {
		return s
	}
	s := string(b)
	if len(s) <= internMaxOver {
		if d.strs == nil {
			d.strs = make(map[string]string, 64)
		}
		if len(d.strs) < internLimit {
			d.strs[s] = s
		}
	}
	return s
}

// internKV returns a pre-boxed `any` for kv, so a repeated command costs
// no interface allocation on decode.
func (d *EntryDecoder) internKV(kv KVCommand) any {
	if c, ok := d.cmds[kv]; ok {
		return c
	}
	var c any = kv
	if d.cmds == nil {
		d.cmds = make(map[KVCommand]any, 64)
	}
	if len(d.cmds) < internLimit {
		d.cmds[kv] = c
	}
	return c
}

// ReadEntries decodes an appendEntries-encoded slice from r. The result
// is appended into reuse[:0] (pass nil for a fresh slice); steady-state
// callers hand back the previous slice so the backing array is
// recycled. Decoded commands never alias r's input.
func (d *EntryDecoder) ReadEntries(r *bin.Reader, reuse []Entry) ([]Entry, error) {
	n := r.Uvarint()
	if err := r.Err(); err != nil {
		return nil, err
	}
	if n == 0 {
		return nil, nil
	}
	// Each entry costs at least two bytes on the wire; a count beyond
	// that bound is corrupt and must not size an allocation.
	if n > uint64(r.Len()) {
		return nil, fmt.Errorf("raft: entry count %d exceeds frame (%d bytes left)", n, r.Len())
	}
	es := reuse[:0]
	for i := uint64(0); i < n; i++ {
		term := r.Int()
		cmd, err := d.ReadCommand(r)
		if err != nil {
			return nil, err
		}
		es = append(es, Entry{Term: term, Command: cmd})
	}
	if err := r.Err(); err != nil {
		return nil, err
	}
	return es, nil
}

// ReadCommand decodes one tagged command.
func (d *EntryDecoder) ReadCommand(r *bin.Reader) (any, error) {
	tag := r.Byte()
	if err := r.Err(); err != nil {
		return nil, err
	}
	switch tag {
	case cmdNil:
		return nil, nil
	case cmdNoop:
		return noopBoxed, nil
	case cmdKV:
		op := d.internString(r.View())
		key := d.internString(r.View())
		val := d.internString(r.View())
		if err := r.Err(); err != nil {
			return nil, err
		}
		return d.internKV(KVCommand{Op: op, Key: key, Value: val}), nil
	case cmdDS:
		v, err := d.ReadCommand(r)
		if err != nil {
			return nil, err
		}
		return DS{Value: v}, nil
	case cmdBytes:
		return r.Bytes(), r.Err()
	case cmdString:
		return d.internString(r.View()), r.Err()
	case cmdInt:
		return r.Int(), r.Err()
	case cmdInt64:
		return r.Varint(), r.Err()
	case cmdBool:
		return r.Bool(), r.Err()
	case cmdGob:
		blob := r.BytesView()
		if err := r.Err(); err != nil {
			return nil, err
		}
		var v any
		if err := gob.NewDecoder(bytes.NewReader(blob)).Decode(&v); err != nil {
			return nil, fmt.Errorf("raft: decode gob command: %w", err)
		}
		return v, nil
	default:
		return nil, fmt.Errorf("raft: unknown command tag %d", tag)
	}
}

// noopBoxed is the shared boxed Noop{}; boxing a zero-size struct is
// already allocation-free, but sharing one value also makes repeated
// no-ops pointer-identical, which keeps them cheap to compare in tests.
var noopBoxed any = Noop{}
