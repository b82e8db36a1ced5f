package main

import (
	rtm "runtime/metrics"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"ooc/internal/metrics"
	"ooc/internal/rtrace"
)

// layers gathers the traced run's per-layer observations: the metrics
// registry every layer reports into, the rtrace sampler, and the timing
// wrappers' tallies. beginLayers and endLayers bracket the measured
// window.
type layers struct {
	reg    *metrics.Registry
	tracer *rtrace.Tracer

	flushes []*tally // one per replica storage
	applies []*tally // one per replica state machine
	sends   []*tally // one per node endpoint
	msgs    atomic.Int64

	t0    time.Time
	snap0 metrics.Snapshot
	base  layerCounts
	rt0   []rtm.Sample
}

// layerCounts are the cumulative counters read straight off the cluster.
type layerCounts struct {
	fsyncs, logBytes, syncRequests, syncBarriers int64
}

// newTally appends a new tally to list and returns it. The wrappers are
// built while the cluster boots, on one goroutine.
func newTally(list *[]*tally) *tally {
	t := &tally{}
	*list = append(*list, t)
	return t
}

var runtimeNames = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/cycles/total:gc-cycles",
}

func readRuntime() []rtm.Sample {
	s := make([]rtm.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		s[i].Name = n
	}
	rtm.Read(s)
	return s
}

func (c *benchCluster) layerCounts() layerCounts {
	var lc layerCounts
	for _, l := range c.logs {
		lc.fsyncs += l.fs.Syncs()
		if fi, err := l.file.Stat(); err == nil {
			lc.logBytes += fi.Size()
		}
	}
	for id := 0; id < nodes; id++ {
		if sc := c.cl.Syncer(id); sc != nil {
			lc.syncRequests += sc.Requests()
			lc.syncBarriers += sc.Barriers()
		}
	}
	return lc
}

func (c *benchCluster) beginLayers() {
	l := c.lay
	for _, list := range [][]*tally{l.flushes, l.applies, l.sends} {
		for _, t := range list {
			t.reset()
		}
	}
	l.msgs.Store(0)
	l.snap0 = l.reg.Snapshot()
	l.base = c.layerCounts()
	l.rt0 = readRuntime()
	l.t0 = time.Now()
}

// delta folds the registry's change since the window start.
type delta struct{ a, b metrics.Snapshot }

// counter sums every series of the named counter.
func (d delta) counter(name string, match ...string) float64 {
	var n int64
	for k, v := range d.b.Counters {
		if series(k, name, match) {
			n += v - d.a.Counters[k]
		}
	}
	return float64(n)
}

// mean is the mean observation of every series of the named histogram;
// count histograms record n as a duration of n nanoseconds.
func (d delta) mean(name string) float64 {
	var sum time.Duration
	var n int64
	for k, h := range d.b.Histograms {
		if series(k, name, nil) {
			h0 := d.a.Histograms[k]
			sum += h.Sum - h0.Sum
			n += h.Count - h0.Count
		}
	}
	return ratio(float64(sum), float64(n))
}

// perShard sums the named counter by its shard label.
func (d delta) perShard(name string, shards int) []float64 {
	out := make([]float64, shards)
	for s := range out {
		out[s] = d.counter(name, `shard="`+strconv.Itoa(s)+`"`)
	}
	return out
}

func series(key, name string, match []string) bool {
	if key != name && !strings.HasPrefix(key, name+"{") {
		return false
	}
	for _, m := range match {
		if !strings.Contains(key, m) {
			return false
		}
	}
	return true
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// endLayers computes the per-layer metrics of the traced window win.
// baseWriteP50 is the write p50 of the untraced window run beside it.
func (c *benchCluster) endLayers(win *window, baseWriteP50 float64) map[string]metric {
	l := c.lay
	d := delta{l.snap0, l.reg.Snapshot()}
	now := c.layerCounts()
	rt := readRuntime()
	attempted, failed := win.counts()
	ops := float64(attempted - failed)
	wP50 := ms(quantile(win.latencies(false), 0.5))

	shardOps := d.perShard("shard_ops_total", c.cl.NumShards())
	flushN, flushD := merge(l.flushes)
	applyN, applyD := merge(l.applies)
	_, sendD := merge(l.sends)
	late := slices.Clone(win.late)
	slices.Sort(late)
	gcCPU := rt[0].Value.Float64() - l.rt0[0].Value.Float64()
	allCPU := rt[1].Value.Float64() - l.rt0[1].Value.Float64()
	gcs := float64(rt[2].Value.Uint64() - l.rt0[2].Value.Uint64())
	commitsEarly := d.counter("raft_pipeline_commit_before_fsync_total")
	commitsLate := d.counter("raft_pipeline_fsync_before_commit_total")
	syncReq := float64(now.syncRequests - l.base.syncRequests)
	syncBar := float64(now.syncBarriers - l.base.syncBarriers)

	out := map[string]metric{
		"shard.ops_imbalance":           {ratio(slices.Max(shardOps), mean(shardOps)), "ratio"},
		"shard.leader_spread":           {float64(c.cl.LeaderSpread()), "nodes"},
		"raft.propose_batch_mean":       {d.mean("raft_propose_batch_size"), "entries"},
		"raft.entries_per_append":       {d.mean("raft_append_entries_per_message"), "entries"},
		"raft.commit_before_fsync_frac": {ratio(commitsEarly, commitsEarly+commitsLate), "frac"},
		"raft.read_rounds_per_read":     {ratio(d.counter("raft_read_rounds_total"), d.counter("raft_reads_served_total")), "1/read"},
		"raft.read_batch_mean":          {d.mean("raft_read_batch_size"), "reads"},
		"raft.elections":                {d.counter("raft_elections_started_total"), "count"},
		"storage.flushes_per_op":        {ratio(float64(flushN), ops), "1/op"},
		"storage.fsyncs_per_op":         {ratio(float64(now.fsyncs-l.base.fsyncs), ops), "1/op"},
		"storage.flush_us_p50":          {us(quantile(flushD, 0.5)), "us"},
		"storage.bytes_per_op":          {ratio(float64(now.logBytes-l.base.logBytes), ops), "B/op"},
		"syncer.barriers_per_op":        {ratio(syncBar, ops), "1/op"},
		"syncer.mean_width":             {ratio(syncReq, syncBar), "groups"},
		"apply.us_p50":                  {us(quantile(applyD, 0.5)), "us"},
		"apply.calls_per_op":            {ratio(float64(applyN), ops), "1/op"},
		"transport.msgs_per_op":         {ratio(float64(l.msgs.Load()), ops), "1/op"},
		"transport.bytes_per_op":        {ratio(d.counter("codec_encode_bytes_total"), ops), "B/op"},
		"transport.send_us_p50":         {us(quantile(sendD, 0.5)), "us"},
		"mux.drops":                     {d.counter("mux_backlog_dropped_total"), "count"},
		"runtime.gc_cpu_frac":           {ratio(gcCPU, allCPU), "frac"},
		"runtime.gc_per_kop":            {ratio(1000*gcs, ops), "1/kop"},
		"gen.late_p99_ms":               {ms(quantile(late, 0.99)), "ms"},
		"trace.overhead_frac":           {ratio(wP50, baseWriteP50) - 1, "frac"},
	}
	spans := l.tracer.Spans()
	phaseSum := 0.0
	for _, kind := range []string{"write", "read"} {
		var sel []rtrace.Span
		for _, s := range spans {
			if !s.Err && !s.Start.Before(l.t0) && (s.Op == "set") == (kind == "write") {
				sel = append(sel, s)
			}
		}
		phases := []rtrace.Phase{rtrace.PhaseQueue, rtrace.PhaseFsync, rtrace.PhaseNetwork, rtrace.PhaseApply}
		if kind == "read" {
			phases = []rtrace.Phase{rtrace.PhaseQueue, rtrace.PhaseNetwork, rtrace.PhaseApply}
		}
		for _, p := range phases {
			v := spanMedian(sel, func(s rtrace.Span) time.Duration { return s.PhaseTotal(p) })
			out["rtrace."+kind+"."+p.String()+"_ms"] = metric{v, "ms"}
			if kind == "write" {
				phaseSum += v
			}
		}
		out["rtrace."+kind+".residue_ms"] = metric{spanMedian(sel, residue), "ms"}
	}
	out["reconcile.residue_frac"] = metric{ratio(wP50-phaseSum, wP50), "frac"}
	return out
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func mean(xs []float64) float64 {
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return ratio(sum, float64(len(xs)))
}

// spanMedian is the median of f over spans, in milliseconds.
func spanMedian(spans []rtrace.Span, f func(rtrace.Span) time.Duration) float64 {
	vals := make([]time.Duration, len(spans))
	for i, s := range spans {
		vals[i] = f(s)
	}
	slices.Sort(vals)
	return ms(quantile(vals, 0.5))
}

// residue is the part of a span that no phase interval covers.
func residue(s rtrace.Span) time.Duration {
	type iv struct{ a, b time.Time }
	var ivs []iv
	for _, p := range s.Phases {
		a, b := p.Start, p.End
		if a.Before(s.Start) {
			a = s.Start
		}
		if b.After(s.End) {
			b = s.End
		}
		if a.Before(b) {
			ivs = append(ivs, iv{a, b})
		}
	}
	slices.SortFunc(ivs, func(x, y iv) int { return x.a.Compare(y.a) })
	covered := time.Duration(0)
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case !v.a.After(cur.b):
			if v.b.After(cur.b) {
				cur.b = v.b
			}
		default:
			covered += cur.b.Sub(cur.a)
			cur = v
		}
	}
	if len(ivs) > 0 {
		covered += cur.b.Sub(cur.a)
	}
	return s.Elapsed() - covered
}
