package bench

import (
	"fmt"
	"os"
	"sort"
	"testing"
	"time"

	"ooc/internal/rtrace"
)

// TestE14PhaseAttributionCoversLatency is the tracing acceptance check:
// on the E14 closed-loop write path with every request sampled, the best
// spans' phase intervals must cover at least 90% of the client-observed
// end-to-end latency. Coverage is the union of the intervals clipped to
// the span (Span.Covered): fsync and network overlap by design, so their
// plain sum passes 100% whatever latency leaks. Scheduling noise on a
// loaded CI box can starve individual spans (the client goroutine's
// post-apply wakeup is genuinely outside the four phases), so the
// assertion is on the best-covered spans of the run, not the mean —
// "a single request's view adds up" is exactly the ooctrace -request
// contract.
func TestE14PhaseAttributionCoversLatency(t *testing.T) {
	if testing.Short() {
		t.Skip("spins a real fsync-bound cluster")
	}
	tracer := rtrace.New(rtrace.Options{Sample: 1})
	res, err := RunKV(KVConfig{
		Nodes:           3,
		Shards:          1,
		ClientsPerShard: 1, // single closed loop: no cross-request queueing noise
		Duration:        400 * time.Millisecond,
		Seed:            42,
		FileStorage:     true,
		Tracer:          tracer,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Ops == 0 {
		t.Fatal("bench committed nothing")
	}
	spans := tracer.Spans()
	var covs []float64
	best := 0.0
	var bestSpan rtrace.Span
	for _, s := range spans {
		if s.Err || s.Remote || s.Elapsed() <= 0 {
			continue
		}
		cov := float64(s.Covered()) / float64(s.Elapsed())
		covs = append(covs, cov)
		if cov > best {
			best, bestSpan = cov, s
		}
	}
	if len(covs) < 5 {
		t.Fatalf("only %d clean spans out of %d ops", len(covs), res.Ops)
	}
	if best < 0.90 {
		t.Fatalf("best span coverage %.1f%% < 90%%: attribution is leaking latency (best span: %+v)",
			100*best, bestSpan)
	}
	// The covered span must attribute through the full pipeline, not
	// vacuously (e.g. a lease read with three empty phases).
	for _, p := range []rtrace.Phase{rtrace.PhaseFsync, rtrace.PhaseNetwork} {
		if bestSpan.PhaseTotal(p) <= 0 {
			t.Fatalf("best span missing %v attribution: %+v", p, bestSpan)
		}
	}
	sort.Float64s(covs)
	t.Logf("spans=%d coverage median=%.1f%% best=%.1f%% (e2e=%v covered=%v attributed=%v)",
		len(covs), 100*covs[len(covs)/2], 100*best, bestSpan.Elapsed(), bestSpan.Covered(), bestSpan.AttributedTotal())
}

// TestE14DisabledTracingOverhead measures the cost of the tracing hooks
// when no request is sampled — the always-paid tax of this PR on the
// E14 hot path. Every hook is a nil-receiver or zero-ID check, so the
// two configurations should be within noise of each other.
//
// Measurement design, forced by shared CI boxes: the in-memory E14
// cell, not the fsync-bound one (fsync latency on shared infrastructure
// swings 2-3x between back-to-back runs, drowning any hook cost; the
// CPU-bound cell is both far more stable and the configuration where
// per-op hook overhead is the LARGEST fraction of total work — the
// conservative choice). Each arm keeps its best-of-k throughput: noise
// on a contended box only steals throughput, so max-of-k per arm
// converges to each configuration's unthrottled rate while a real hook
// tax persists as a gap between the two maxima. The strict 3% gate arms
// under OOC_BENCH_SMOKE=1 (the CI bench-smoke job) with k=9 and one
// re-measure on failure — a two-strike rule that halves sensitivity to
// a single interference burst without masking a persistent regression;
// otherwise k=5 with a loose 25% backstop keeps `go test ./...` honest
// but unflaky.
func TestE14DisabledTracingOverhead(t *testing.T) {
	if testing.Short() {
		t.Skip("spins closed-loop clusters repeatedly")
	}
	strict := os.Getenv("OOC_BENCH_SMOKE") == "1"
	k, limit := 5, 0.25
	if strict {
		k, limit = 9, 0.03
	}
	run := func(seed uint64, traced bool) float64 {
		cfg := KVConfig{
			Nodes:           3,
			Shards:          1,
			ClientsPerShard: 8,
			Duration:        200 * time.Millisecond,
			Seed:            seed,
		}
		if traced {
			// Tracer armed but sampling nothing: the configuration a
			// production cluster runs with tracing compiled in and off.
			cfg.Tracer = rtrace.New(rtrace.Options{Sample: 0})
		}
		res, err := RunKV(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res.OpsPerSec
	}
	measure := func() (bestOff, bestOn, delta float64) {
		// Alternate arms per seed so interference bursts hit both.
		for i := 0; i < k; i++ {
			seed := uint64(100 + i)
			if off := run(seed, false); off > bestOff {
				bestOff = off
			}
			if on := run(seed, true); on > bestOn {
				bestOn = on
			}
		}
		return bestOff, bestOn, (bestOff - bestOn) / bestOff
	}
	bestOff, bestOn, delta := measure()
	t.Logf("ops/sec best-of-%d: untraced=%.0f traced-off=%.0f delta=%.1f%%", k, bestOff, bestOn, 100*delta)
	if delta > limit && strict {
		// Second strike: a one-off interference burst during the
		// untraced arm's best run inflates delta; a real hook tax
		// reproduces.
		bestOff, bestOn, delta = measure()
		t.Logf("re-measure best-of-%d: untraced=%.0f traced-off=%.0f delta=%.1f%%", k, bestOff, bestOn, 100*delta)
	}
	if delta > limit {
		t.Fatalf("disabled tracing costs %.1f%% throughput (limit %.0f%%): untraced=%.0f traced=%.0f",
			100*delta, 100*limit, bestOff, bestOn)
	}
}

// TestE14TracedRunProducesConsumableSpans is the end-to-end pipeline
// check behind `raftkv -trace-sample ... -trace-out` → `ooctrace
// -spans -request`: dump the run's spans to disk, read them back, and
// verify the per-request view has what ooctrace renders.
func TestE14TracedRunProducesConsumableSpans(t *testing.T) {
	if testing.Short() {
		t.Skip("spins a real fsync-bound cluster")
	}
	tracer := rtrace.New(rtrace.Options{Sample: 0.5})
	if _, err := RunKV(KVConfig{
		Nodes:           3,
		Shards:          1,
		ClientsPerShard: 4,
		Duration:        300 * time.Millisecond,
		Seed:            7,
		FileStorage:     true,
		Tracer:          tracer,
	}); err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/spans.json"
	if err := tracer.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	spans, err := rtrace.ReadSpansFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(spans) == 0 {
		t.Fatal("no spans in dump")
	}
	withPhases := 0
	for _, s := range spans {
		if len(s.Phases) > 0 {
			withPhases++
		}
		for _, pi := range s.Phases {
			if pi.End.Before(pi.Start) {
				t.Fatalf("span %x: inverted interval %+v", uint64(s.ID), pi)
			}
		}
	}
	if withPhases == 0 {
		t.Fatal("no span carries phase attribution")
	}
	t.Logf("dump: %d spans, %d with phases (%s)", len(spans), withPhases, fmt.Sprintf("%.0f%%", 100*float64(withPhases)/float64(len(spans))))
}
