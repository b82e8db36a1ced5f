package rtrace

import (
	"bytes"
	"context"
	"sync"
	"testing"
	"time"

	"ooc/internal/metrics"
)

func TestSpanLifecycle(t *testing.T) {
	reg := metrics.NewRegistry()
	tr := New(Options{Sample: 1, Registry: reg})
	id, ok := tr.Begin(2, "set", "k1")
	if !ok || id == 0 {
		t.Fatalf("Begin at sample=1 must sample: id=%d ok=%v", id, ok)
	}
	base := time.Now()
	tr.ObservePhase(id, PhaseQueue, 2, base, base.Add(10*time.Microsecond))
	tr.ObservePhase(id, PhaseFsync, 2, base.Add(10*time.Microsecond), base.Add(1*time.Millisecond))
	tr.ObservePhase(id, PhaseNetwork, 2, base.Add(1*time.Millisecond), base.Add(3*time.Millisecond))
	tr.ObservePhase(id, PhaseApply, 2, base.Add(3*time.Millisecond), base.Add(3100*time.Microsecond))
	tr.End(id, false)

	s, ok := tr.Span(id)
	if !ok {
		t.Fatalf("completed span %d not found", id)
	}
	if s.Op != "set" || s.Key != "k1" || s.Origin != 2 || s.Err || s.Remote {
		t.Fatalf("span fields wrong: %+v", s)
	}
	if len(s.Phases) != 4 {
		t.Fatalf("want 4 phase intervals, got %d", len(s.Phases))
	}
	if got := s.PhaseTotal(PhaseFsync); got != 990*time.Microsecond {
		t.Fatalf("fsync total = %v, want 990µs", got)
	}
	if got := s.AttributedTotal(); got != 3100*time.Microsecond {
		t.Fatalf("attributed total = %v, want 3.1ms", got)
	}
	if s.Elapsed() <= 0 {
		t.Fatalf("elapsed must be positive, got %v", s.Elapsed())
	}
	snap := reg.Snapshot()
	if snap.Counters["rtrace_spans_started_total"] != 1 {
		t.Fatalf("started counter = %d, want 1", snap.Counters["rtrace_spans_started_total"])
	}
	if h, okh := snap.Histograms[`rtrace_phase_latency{phase="fsync"}`]; !okh || h.Count != 1 {
		t.Fatalf("fsync histogram not recorded: %+v", snap.Histograms)
	}
	if h, okh := snap.Histograms["rtrace_request_latency"]; !okh || h.Count != 1 {
		t.Fatalf("e2e histogram not recorded")
	}
}

// TestSpanCovered pins the union semantics: overlapping phases count
// once, gaps count zero, and intervals are clipped to the span, so
// coverage can never pass 100% the way AttributedTotal does.
func TestSpanCovered(t *testing.T) {
	base := time.Now()
	at := func(us int) time.Time { return base.Add(time.Duration(us) * time.Microsecond) }
	s := Span{Start: at(0), End: at(1000), Phases: []PhaseInterval{
		{Phase: PhaseNetwork, Start: at(300), End: at(700)},
		{Phase: PhaseQueue, Start: at(0), End: at(100)},
		{Phase: PhaseFsync, Start: at(200), End: at(500)},   // overlaps network
		{Phase: PhaseFsync, Start: at(400), End: at(600)},   // inside the union
		{Phase: PhaseApply, Start: at(900), End: at(1400)},  // runs past End
		{Phase: PhaseApply, Start: at(1100), End: at(1200)}, // wholly outside
	}}
	if got, want := s.Covered(), 700*time.Microsecond; got != want {
		t.Fatalf("Covered = %v, want %v (queue 100 + fsync/network 500 + clipped apply 100)", got, want)
	}
	if got := s.AttributedTotal(); got <= s.Elapsed() {
		t.Fatalf("fixture must over-attribute: AttributedTotal %v <= Elapsed %v", got, s.Elapsed())
	}
	if got := (Span{Start: at(0), End: at(10)}).Covered(); got != 0 {
		t.Fatalf("span without phases covers %v, want 0", got)
	}
}

func TestUnsampledAndNilPathsAreInert(t *testing.T) {
	tr := New(Options{Sample: 0})
	if id, ok := tr.Begin(0, "set", "k"); ok || id != 0 {
		t.Fatalf("sample=0 must never sample, got id=%d", id)
	}
	if !tr.Now(0).IsZero() {
		t.Fatal("Now(0) must not read the clock")
	}
	// All of these must be safe no-ops on ID 0 and on a nil tracer.
	tr.ObservePhase(0, PhaseQueue, 0, time.Now(), time.Now())
	tr.End(0, false)
	var nilT *Tracer
	if id, ok := nilT.Begin(0, "set", "k"); ok || id != 0 {
		t.Fatal("nil tracer Begin must return 0")
	}
	nilT.ObservePhase(1, PhaseQueue, 0, time.Now(), time.Now())
	nilT.End(1, false)
	if !nilT.Now(1).IsZero() {
		t.Fatal("nil tracer Now must return zero time")
	}
	if nilT.Spans() != nil {
		t.Fatal("nil tracer Spans must be nil")
	}
}

func TestSamplingRate(t *testing.T) {
	tr := New(Options{Sample: 0.5, Seed: 7})
	const n = 20000
	hits := 0
	for i := 0; i < n; i++ {
		if id, ok := tr.Begin(0, "op", ""); ok {
			hits++
			tr.End(id, false)
		}
	}
	frac := float64(hits) / n
	if frac < 0.45 || frac > 0.55 {
		t.Fatalf("sample=0.5 hit rate %.3f outside [0.45, 0.55]", frac)
	}
}

func TestContextThreading(t *testing.T) {
	if got := FromContext(context.Background()); got != 0 {
		t.Fatalf("empty context must carry ID 0, got %d", got)
	}
	ctx := WithTrace(context.Background(), 42)
	if got := FromContext(ctx); got != 42 {
		t.Fatalf("FromContext = %d, want 42", got)
	}
}

func TestRemoteStubSpan(t *testing.T) {
	tr := New(Options{Sample: 1})
	// An ID this tracer never began — as if it arrived in a frame header
	// from another process.
	now := time.Now()
	tr.ObservePhase(ID(999), PhaseNetwork, 3, now, now.Add(time.Millisecond))
	tr.End(ID(999), false)
	s, ok := tr.Span(ID(999))
	if !ok {
		t.Fatal("remote stub span not completed")
	}
	if !s.Remote || s.Origin != 3 || len(s.Phases) != 1 {
		t.Fatalf("remote stub wrong: %+v", s)
	}
}

func TestActiveTableEviction(t *testing.T) {
	reg := metrics.NewRegistry()
	tr := New(Options{Sample: 1, Capacity: 4, Registry: reg})
	var ids []ID
	for i := 0; i < 6; i++ {
		id, _ := tr.Begin(0, "op", "")
		ids = append(ids, id)
	}
	// The two oldest in-flight spans were evicted and finalized as errors.
	spans := tr.Spans()
	if len(spans) != 2 {
		t.Fatalf("want 2 evicted spans, got %d", len(spans))
	}
	for i, s := range spans {
		if s.ID != ids[i] || !s.Err {
			t.Fatalf("evicted span %d wrong: %+v", i, s)
		}
	}
	if got := reg.Snapshot().Counters["rtrace_spans_dropped_total"]; got != 2 {
		t.Fatalf("dropped counter = %d, want 2", got)
	}
}

func TestDoneRingWraparound(t *testing.T) {
	tr := New(Options{Sample: 1, Capacity: 4})
	var ids []ID
	for i := 0; i < 10; i++ {
		id, _ := tr.Begin(0, "op", "")
		ids = append(ids, id)
		tr.End(id, false)
	}
	spans := tr.Spans()
	if len(spans) != 4 {
		t.Fatalf("ring must hold capacity spans, got %d", len(spans))
	}
	for i, s := range spans {
		if s.ID != ids[6+i] {
			t.Fatalf("ring order wrong at %d: got %d want %d (oldest first)", i, s.ID, ids[6+i])
		}
	}
}

func TestSpanJSONRoundTrip(t *testing.T) {
	tr := New(Options{Sample: 1})
	id, _ := tr.Begin(1, "get:lease", "k9")
	now := time.Now()
	tr.ObservePhase(id, PhaseQueue, 1, now, now.Add(5*time.Microsecond))
	tr.End(id, true)

	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	spans, err := ReadSpans(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(spans) != 1 {
		t.Fatalf("round trip lost spans: %d", len(spans))
	}
	got, want := spans[0], mustSpan(t, tr, id)
	if got.ID != want.ID || got.Op != want.Op || got.Key != want.Key ||
		got.Err != want.Err || len(got.Phases) != len(want.Phases) ||
		got.Phases[0].Phase != PhaseQueue {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, want)
	}
	if got.Phases[0].Duration() != want.Phases[0].Duration() {
		t.Fatalf("phase duration drifted: %v vs %v", got.Phases[0].Duration(), want.Phases[0].Duration())
	}
}

func mustSpan(t *testing.T, tr *Tracer, id ID) Span {
	t.Helper()
	s, ok := tr.Span(id)
	if !ok {
		t.Fatalf("span %d missing", id)
	}
	return s
}

// TestConcurrentSpanLifecycle hammers Begin/ObservePhase/End from many
// goroutines while readers snapshot, the contention pattern of a real
// cluster (client goroutines × node loops × a scraper). Run under
// -race in CI.
func TestConcurrentSpanLifecycle(t *testing.T) {
	reg := metrics.NewRegistry()
	tr := New(Options{Sample: 1, Registry: reg, Capacity: 128})
	const workers, iters = 8, 300
	stop := make(chan struct{})
	var reader sync.WaitGroup
	reader.Add(1)
	go func() { // concurrent snapshot reader
		defer reader.Done()
		for {
			select {
			case <-stop:
				return
			default:
				for _, s := range tr.Spans() {
					_ = s.AttributedTotal()
				}
			}
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				id, ok := tr.Begin(w, "op", "k")
				if !ok {
					t.Errorf("worker %d: Begin failed at sample=1", w)
					return
				}
				start := tr.Now(id)
				tr.ObservePhase(id, Phase(i%4), w, start, time.Now())
				tr.End(id, i%7 == 0)
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	reader.Wait()

	if got := reg.Snapshot().Counters["rtrace_spans_started_total"]; got != workers*iters {
		t.Fatalf("started counter = %d, want %d", got, workers*iters)
	}
	if n := len(tr.Spans()); n != 128 {
		t.Fatalf("done ring holds %d spans, want capacity 128", n)
	}
}
