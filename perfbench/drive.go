package main

import (
	"context"
	rtm "runtime/metrics"
	"sync"
	"time"

	"ooc/internal/raft"
)

const (
	// opTimeout is each op's deadline past its due time; an op that
	// misses it counts as failed.
	opTimeout = 2 * time.Second
	// Failover cuts the shard-0 leader off for cutLen, once per
	// cutEvery of the window. cutLen is over three election timeouts.
	cutLen   = 500 * time.Millisecond
	cutEvery = 3 * time.Second
	// Workloads without cuts place fault-free unavailability marks
	// every markEvery.
	markEvery = 100 * time.Millisecond
	// memEvery is the heap sampling period.
	memEvery = 50 * time.Millisecond
)

// record is one op's outcome, timed from the window start.
type record struct {
	read    bool
	ok      bool
	skipped bool // not sent: an earlier write to its key failed
	key     string
	version int64 // written, or observed by a read (0: key absent)
	due     time.Duration
	inv     time.Duration
	ret     time.Duration
}

// window is one measured stretch of load.
type window struct {
	d      time.Duration
	recs   []record
	marks  []time.Duration // leader cuts, or fault-free marks
	late   []time.Duration // open-loop sender lateness
	allocs uint64
	heap   []float64 // sampled live heap bytes
}

// measure runs w's load on c for d. begin and end, if set, run at the
// window's start and after its last op has returned; the traced run
// snapshots its layer counters there.
func (c *benchCluster) measure(seed uint64, d time.Duration, begin func(), end func(*window)) *window {
	w := c.w
	ops := schedule(w, seed, d)
	win := &window{d: d, recs: make([]record, len(ops)), late: make([]time.Duration, 0, len(ops))}
	var streams []*clientStream
	for i := 0; i < w.writers; i++ {
		streams = append(streams, newWriterStream(seed, i, w.writerKeys))
	}
	for i := 0; i < w.readers; i++ {
		streams = append(streams, newReaderStream(seed, i, keySpace(w)))
	}
	closed := make([][]record, len(streams))
	var poisoned sync.Map

	stop := make(chan struct{})
	var bg sync.WaitGroup // mark placement and heap sampling
	var load sync.WaitGroup

	if begin != nil {
		begin()
	}
	allocs0 := readAllocs()
	t0 := time.Now()

	bg.Add(2)
	go func() {
		defer bg.Done()
		win.marks = c.placeMarks(t0, d)
	}()
	go func() {
		defer bg.Done()
		tick := time.NewTicker(memEvery)
		defer tick.Stop()
		sample := []rtm.Sample{{Name: "/gc/heap/live:bytes"}}
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				rtm.Read(sample)
				win.heap = append(win.heap, float64(sample[0].Value.Uint64()))
			}
		}
	}()

	closedCtx, cancel := context.WithDeadline(context.Background(), t0.Add(d+opTimeout))
	defer cancel()
	for i, s := range streams {
		load.Add(1)
		go func() {
			defer load.Done()
			for time.Since(t0) < d {
				o := s.next()
				var r record
				c.do(closedCtx, t0, &o, &r, nil, nil, &poisoned)
				r.due = r.inv
				if !r.skipped {
					closed[i] = append(closed[i], r)
				}
				if o.read {
					time.Sleep(w.readPause)
				}
			}
		}()
	}

	last := make(map[string]chan struct{})
	for i := range ops {
		o := &ops[i]
		due := t0.Add(o.due)
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		win.late = append(win.late, time.Since(due))
		var prev, done chan struct{}
		if !o.read {
			prev = last[o.key]
			done = make(chan struct{})
			last[o.key] = done
		}
		load.Add(1)
		go func() {
			defer load.Done()
			ctx, cancel := context.WithDeadline(context.Background(), due.Add(opTimeout))
			defer cancel()
			c.do(ctx, t0, o, &win.recs[i], prev, done, &poisoned)
		}()
	}
	load.Wait()
	win.allocs = readAllocs() - allocs0
	close(stop)
	bg.Wait()
	for _, rs := range closed {
		win.recs = append(win.recs, rs...)
	}
	if end != nil {
		end(win)
	}
	return win
}

// do runs one op into r. A write first waits for the previous write to
// its key (prev) and releases the next one (done) when it returns, so
// writes to a key never overlap. Once a write to a key fails, later ops
// on that key are skipped: the failed write may still take effect.
func (c *benchCluster) do(ctx context.Context, t0 time.Time, o *op, r *record, prev, done chan struct{}, poisoned *sync.Map) {
	if prev != nil {
		<-prev
	}
	if done != nil {
		defer close(done)
	}
	r.read, r.key, r.due, r.version = o.read, o.key, o.due, o.version
	if _, bad := poisoned.Load(o.key); bad {
		r.skipped = true
		return
	}
	r.inv = time.Since(t0)
	if o.read {
		v, found, err := c.cl.GetWith(ctx, o.key, raft.ReadLinearizable)
		r.ret = time.Since(t0)
		r.ok = err == nil
		if r.ok && found {
			if r.version, err = parseVersion(v); err != nil {
				r.version = -1 // no write stores this; the checker reports it
			}
		}
		return
	}
	_, _, err := c.cl.Put(ctx, o.key, value(o.version))
	r.ret = time.Since(t0)
	r.ok = err == nil
	if !r.ok {
		poisoned.Store(o.key, true)
	}
}

// placeMarks returns the window's unavailability marks. On failover each
// mark is a cut: the shard-0 leader is cut off for cutLen, and the mark
// is the moment the cut began. Elsewhere the marks fall every markEvery
// with nothing injected.
func (c *benchCluster) placeMarks(t0 time.Time, d time.Duration) []time.Duration {
	if !c.w.cuts {
		var marks []time.Duration
		for m := markEvery; m < d; m += markEvery {
			marks = append(marks, m)
		}
		return marks
	}
	k := max(1, int(d/cutEvery))
	marks := make([]time.Duration, 0, k)
	for i := 0; i < k; i++ {
		at := t0.Add(d * time.Duration(2*i+1) / time.Duration(2*k))
		time.Sleep(time.Until(at))
		victim := c.leader(0)
		for victim < 0 && time.Since(at) < cutLen {
			time.Sleep(time.Millisecond)
			victim = c.leader(0)
		}
		c.cut.Store(int32(victim))
		marks = append(marks, time.Since(t0))
		time.Sleep(cutLen)
		c.cut.Store(-1)
	}
	return marks
}

func readAllocs() uint64 {
	s := []rtm.Sample{{Name: "/gc/heap/allocs:objects"}}
	rtm.Read(s)
	return s[0].Value.Uint64()
}
