package raft

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"
)

// appliedNotifier publishes the node's applied index, and the term of
// the entry applied there, to waiters outside the main loop. The
// client's SubmitWait used to discover applies by polling Status every
// backoff tick — each poll a channel round-trip through the main loop,
// so a grid of closed-loop clients both quantized its own latency to
// the poll period and stole main-loop iterations from the commit
// pipeline it was waiting on. The notifier replaces that with
// edge-triggered wakeups: the apply worker calls advance after each
// apply batch (one mutex acquisition, and a channel rotation only when
// someone waits), and waiters block on a closed-channel broadcast
// without the main loop ever seeing them.
type appliedNotifier struct {
	mu   sync.Mutex
	idx  int
	term int           // term of the entry at idx (the snapshot's, after a restore)
	ch   chan struct{} // closed and rotated when idx advances while held
	// held records that a waiter took ch since its last rotation. A
	// channel nobody holds wakes nobody, so advance keeps it — followers,
	// whose applies nobody waits on, rotate nothing.
	held bool
	// cur mirrors idx for lock-free reads: the apply worker is the
	// advancing side and the main loop polls the value on every read it
	// serves, so the read must not contend with waiter wakeups.
	cur atomic.Int64
}

func newAppliedNotifier(idx, term int) *appliedNotifier {
	a := &appliedNotifier{idx: idx, term: term, ch: make(chan struct{})}
	a.cur.Store(int64(idx))
	return a
}

// advance publishes a new applied index and the term of its entry, and
// wakes all current waiters. Called only from the apply worker.
func (a *appliedNotifier) advance(idx, term int) {
	a.mu.Lock()
	if idx > a.idx {
		a.idx, a.term = idx, term
		a.cur.Store(int64(idx))
		if a.held {
			close(a.ch)
			a.ch, a.held = make(chan struct{}), false
		}
	}
	a.mu.Unlock()
}

// current reads the published applied index without the lock.
func (a *appliedNotifier) current() int {
	return int(a.cur.Load())
}

// last reads the published applied index and its entry's term together.
func (a *appliedNotifier) last() (idx, term int) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.idx, a.term
}

// errWaitExpired reports that a wait's expire channel fired first.
var errWaitExpired = errors.New("raft: applied wait expired")

// wait blocks until the published applied index reaches index, ctx
// ends, stop closes, or expire fires (errWaitExpired; a nil expire never
// fires). It returns the last index it observed and the term of the
// entry applied there.
func (a *appliedNotifier) wait(ctx context.Context, stop <-chan struct{}, index int, expire <-chan time.Time) (idx, term int, err error) {
	for {
		a.mu.Lock()
		idx, term = a.idx, a.term
		if idx >= index {
			a.mu.Unlock()
			return idx, term, nil
		}
		ch := a.ch
		a.held = true
		a.mu.Unlock()
		select {
		case <-ch:
		case <-ctx.Done():
			return idx, term, ctx.Err()
		case <-stop:
			return idx, term, ErrStopped
		case <-expire:
			return idx, term, errWaitExpired
		}
	}
}

// AwaitApplied blocks until this node's state machine has applied the
// log through index, returning the applied index it observed. It
// returns early with an error when ctx ends or the node stops. Unlike
// Status polling it wakes at the apply itself and costs the protocol
// loop nothing.
//
// Reaching index says nothing about WHICH entry was applied there: an
// entry can be truncated by a new leader and replaced at the same
// index. Client.SubmitWait tells its own entry from a replacement by
// the applied entry's term (see Client.waitApplied).
func (nd *Node) AwaitApplied(ctx context.Context, index int) (int, error) {
	idx, _, err := nd.applied.wait(ctx, nd.stopped, index, nil)
	return idx, err
}
