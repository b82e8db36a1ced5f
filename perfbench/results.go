package main

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"time"

	"ooc/internal/checker"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the JSON object the benchmark prints as its last line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// counts returns the ops attempted and failed. An open-loop op skipped
// because an earlier write to its key failed counts as failed; a
// closed-loop client just draws its next op.
func (win *window) counts() (attempted, failed int) {
	for _, r := range win.recs {
		attempted++
		if !r.ok {
			failed++
		}
	}
	return attempted, failed
}

// latencies returns the sorted latencies, from due time to return, of
// the successful reads (read set) or writes.
func (win *window) latencies(read bool) []time.Duration {
	var out []time.Duration
	for _, r := range win.recs {
		if r.ok && r.read == read {
			out = append(out, r.ret-r.due)
		}
	}
	slices.Sort(out)
	return out
}

// quantile is the nearest-rank q-quantile of sorted; 0 when empty.
func quantile[T time.Duration | float64](sorted []T, q float64) T {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// unavailability is the median, over the window's marks, of the time from
// a mark to the first success among the ops due at or after it.
func (win *window) unavailability() time.Duration {
	var oks []record
	for _, r := range win.recs {
		if r.ok {
			oks = append(oks, r)
		}
	}
	sort.Slice(oks, func(i, j int) bool { return oks[i].due < oks[j].due })
	// suffixMin[i] is the earliest return among oks[i:].
	suffixMin := make([]time.Duration, len(oks)+1)
	suffixMin[len(oks)] = math.MaxInt64
	for i := len(oks) - 1; i >= 0; i-- {
		suffixMin[i] = min(suffixMin[i+1], oks[i].ret)
	}
	var gaps []time.Duration
	for _, m := range win.marks {
		i := sort.Search(len(oks), func(i int) bool { return oks[i].due >= m })
		if i < len(oks) {
			gaps = append(gaps, suffixMin[i]-m)
		}
	}
	slices.Sort(gaps)
	return quantile(gaps, 0.5)
}

// endToEnd computes the end-to-end metrics of an untraced window.
func (win *window) endToEnd(setup float64) map[string]metric {
	attempted, failed := win.counts()
	done := attempted - failed
	heap := slices.Clone(win.heap)
	slices.Sort(heap)
	return map[string]metric{
		"ops_per_sec":   {float64(done) / win.d.Seconds(), "1/s"},
		"write_p50_ms":  {ms(quantile(win.latencies(false), 0.5)), "ms"},
		"read_p50_ms":   {ms(quantile(win.latencies(true), 0.5)), "ms"},
		"ok_frac":       {float64(done) / float64(max(attempted, 1)), "frac"},
		"unavail_ms":    {ms(win.unavailability()), "ms"},
		"allocs_per_op": {float64(win.allocs) / float64(max(done, 1)), "allocs/op"},
		"mem_mb":        {quantile(heap, 0.5) / (1 << 20), "MiB"},
		"setup_s":       {setup, "s"},
	}
}

// tails formats the p99 latencies with their sample counts. They are
// printed beside the result, not reported as end-to-end metrics: on a
// 2-CPU VM with 5-17% hypervisor steal they moved between runs by more
// than the largest bound BENCHMARK.json allows.
func (win *window) tails() string {
	w, r := win.latencies(false), win.latencies(true)
	return fmt.Sprintf("tails: write_p99_ms=%.4f (n=%d) read_p99_ms=%.4f (n=%d)",
		ms(quantile(w, 0.99)), len(w), ms(quantile(r, 0.99)), len(r))
}

// check is the correctness gate, run after the cluster has quiesced:
// the recorded history must be linearizable per key, every replica of a
// shard must hold the same state, and every key must hold its last
// acknowledged write.
func (c *benchCluster) check(win *window) error {
	if err := c.checkReplicas(); err != nil {
		return err
	}
	var hist []checker.RWOp
	last := make(map[string]int64)
	ambiguous := make(map[string]bool)
	for _, r := range win.recs {
		if r.skipped || (r.read && !r.ok) {
			continue
		}
		op := checker.RWOp{Read: r.read, Key: r.key, Version: r.version, Invoke: int64(r.inv), Return: int64(r.ret)}
		if !r.ok {
			// A failed write may take effect at any later time.
			op.Return = math.MaxInt64
			ambiguous[r.key] = true
		}
		hist = append(hist, op)
		if !r.read && r.ok {
			last[r.key] = max(last[r.key], r.version)
		}
	}
	if rep := checker.CheckRegisterLinearizable(hist); !rep.Ok() {
		return fmt.Errorf("history of %d ops is not linearizable: %s", len(hist), rep.String())
	}
	for key, version := range last {
		if ambiguous[key] {
			continue
		}
		if got, _ := c.get(key); got != value(version) {
			return fmt.Errorf("key %q holds %q after its last acknowledged write of version %d", key, got, version)
		}
	}
	return nil
}
