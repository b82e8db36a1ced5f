// Span-dump views: the per-request latency-attribution side of
// ooctrace, reading the rtrace dumps written by raftkv -trace-out.
// Where the trace.json views reconstruct a simulator run round by
// round, these follow one sampled client operation through the real
// request path and say where its latency went: leader queue, fsync,
// replication network, or apply.
package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"time"

	"ooc/internal/rtrace"
)

// allPhases is the render order: the request path's causal order.
var allPhases = [...]rtrace.Phase{
	rtrace.PhaseQueue, rtrace.PhaseFsync, rtrace.PhaseNetwork, rtrace.PhaseApply,
}

// parseSpanID accepts the two forms ooctrace itself prints: the
// %016x hex form (with or without an 0x prefix) and plain decimal.
func parseSpanID(s string) (rtrace.ID, error) {
	if len(s) > 2 && (s[:2] == "0x" || s[:2] == "0X") {
		s = s[2:]
	}
	if n, err := strconv.ParseUint(s, 16, 64); err == nil {
		return rtrace.ID(n), nil
	}
	n, err := strconv.ParseUint(s, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("not a span ID (want hex or decimal): %q", s)
	}
	return rtrace.ID(n), nil
}

// spanSummary is one span's one-line accounting — the listing row and
// the -json listing element. Durations JSON-encode as nanoseconds.
type spanSummary struct {
	ID         string        `json:"id"`
	Op         string        `json:"op"`
	Key        string        `json:"key,omitempty"`
	Origin     int           `json:"origin"`
	Err        bool          `json:"err,omitempty"`
	Elapsed    time.Duration `json:"elapsed_ns"`
	Queue      time.Duration `json:"queue_ns"`
	Fsync      time.Duration `json:"fsync_ns"`
	Network    time.Duration `json:"network_ns"`
	Apply      time.Duration `json:"apply_ns"`
	Attributed time.Duration `json:"attributed_ns"` // sum of every interval
	Covered    time.Duration `json:"covered_ns"`    // their union, clipped to the span
	Coverage   float64       `json:"coverage"`      // covered / elapsed
}

func summarize(s rtrace.Span) spanSummary {
	sum := spanSummary{
		ID:         fmt.Sprintf("%016x", uint64(s.ID)),
		Op:         s.Op,
		Key:        s.Key,
		Origin:     s.Origin,
		Err:        s.Err,
		Elapsed:    s.Elapsed(),
		Queue:      s.PhaseTotal(rtrace.PhaseQueue),
		Fsync:      s.PhaseTotal(rtrace.PhaseFsync),
		Network:    s.PhaseTotal(rtrace.PhaseNetwork),
		Apply:      s.PhaseTotal(rtrace.PhaseApply),
		Attributed: s.AttributedTotal(),
		Covered:    s.Covered(),
	}
	if sum.Elapsed > 0 {
		sum.Coverage = float64(sum.Covered) / float64(sum.Elapsed)
	}
	return sum
}

// requestView is the -request detail: the span's phase intervals as
// offsets from span start, plus the attribution totals. This is the
// shape CI diffs with -json. Overlap is attributed time minus covered
// time: the wall-clock the pipeline hid by running fsync and network
// concurrently, plus any follower work that ran past the reply.
type requestView struct {
	spanSummary
	Start   time.Time       `json:"start"`
	Overlap time.Duration   `json:"overlap_ns"`
	Phases  []phaseInterval `json:"phases"`
}

type phaseInterval struct {
	Phase    string        `json:"phase"`
	Node     int           `json:"node"`
	Offset   time.Duration `json:"offset_ns"` // interval start − span start
	Duration time.Duration `json:"duration_ns"`
	// Width, on a fsync interval, is how many groups' flushes shared
	// the device barrier the interval measures (0/absent = private).
	Width int `json:"width,omitempty"`
}

func viewRequest(s rtrace.Span) requestView {
	v := requestView{spanSummary: summarize(s), Start: s.Start}
	phases := append([]rtrace.PhaseInterval(nil), s.Phases...)
	sort.SliceStable(phases, func(i, j int) bool { return phases[i].Start.Before(phases[j].Start) })
	for _, pi := range phases {
		v.Phases = append(v.Phases, phaseInterval{
			Phase:    pi.Phase.String(),
			Node:     pi.Node,
			Offset:   pi.Start.Sub(s.Start),
			Duration: pi.Duration(),
			Width:    pi.Width,
		})
	}
	v.Overlap = v.Attributed - v.Covered
	return v
}

// runSpans drives the -spans mode: a listing of every span in the
// dump, or the single-request timeline when -request is given.
func runSpans(path, request string, jsonOut bool) error {
	spans, err := rtrace.ReadSpansFile(path)
	if err != nil {
		return err
	}
	w := os.Stdout
	if request == "" {
		return printSpanList(w, spans, jsonOut)
	}
	id, err := parseSpanID(request)
	if err != nil {
		return err
	}
	for _, s := range spans {
		if s.ID == id {
			return printRequest(w, s, jsonOut)
		}
	}
	return fmt.Errorf("span %016x not in %s (%d spans; run without -request to list)", uint64(id), path, len(spans))
}

func printSpanList(w io.Writer, spans []rtrace.Span, jsonOut bool) error {
	summaries := make([]spanSummary, len(spans))
	for i, s := range spans {
		summaries[i] = summarize(s)
	}
	if jsonOut {
		return writeJSON(w, struct {
			Spans []spanSummary `json:"spans"`
		}{summaries})
	}
	fmt.Fprintf(w, "spans: %d sampled requests\n", len(spans))
	if len(spans) == 0 {
		return nil
	}
	fmt.Fprintf(w, "  %-16s  %-14s  %-10s  %-9s  %-9s  %-9s  %-9s  %-9s  %-5s  %s\n",
		"id", "op", "key", "elapsed", "queue", "fsync", "network", "apply", "cover", "err")
	for _, s := range summaries {
		errMark := ""
		if s.Err {
			errMark = "ERR"
		}
		fmt.Fprintf(w, "  %-16s  %-14s  %-10s  %-9s  %-9s  %-9s  %-9s  %-9s  %4.0f%%  %s\n",
			s.ID, trunc(s.Op, 14), trunc(s.Key, 10), fd(s.Elapsed),
			fd(s.Queue), fd(s.Fsync), fd(s.Network), fd(s.Apply), 100*s.Coverage, errMark)
	}
	fmt.Fprintf(w, "  (detail: ooctrace -spans <file> -request <id>)\n")
	return nil
}

func printRequest(w io.Writer, s rtrace.Span, jsonOut bool) error {
	v := viewRequest(s)
	if jsonOut {
		return writeJSON(w, v)
	}
	fmt.Fprintf(w, "request %s: %s", v.ID, s.Op)
	if s.Key != "" {
		fmt.Fprintf(w, " key=%q", s.Key)
	}
	fmt.Fprintf(w, " origin=node%d", s.Origin)
	if s.Err {
		fmt.Fprintf(w, " (errored)")
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "  end-to-end %s, covered %s (%.0f%% coverage), attributed %s",
		fd(v.Elapsed), fd(v.Covered), 100*v.Coverage, fd(v.Attributed))
	if v.Overlap > 0 {
		fmt.Fprintf(w, ", pipelined overlap %s", fd(v.Overlap))
	}
	fmt.Fprintln(w)
	fmt.Fprintln(w)

	// Waterfall: each interval as a bar positioned on the span's
	// timeline. Bars sharing columns are phases running concurrently —
	// the leader's fsync and the network round overlap here.
	const waterfallWidth = 48
	fmt.Fprintf(w, "  %-9s  %-10s  %-5s  %-9s  |%-*s|\n",
		"offset", "phase", "node", "duration", waterfallWidth, timeAxis(v.Elapsed, waterfallWidth))
	shared := 0
	for _, pi := range v.Phases {
		label := pi.Phase
		if pi.Width > 1 {
			label = fmt.Sprintf("%s ×%d", pi.Phase, pi.Width)
			if pi.Width > shared {
				shared = pi.Width
			}
		}
		fmt.Fprintf(w, "  +%-8s  %-10s  %-5d  %-9s  |%s|\n",
			fd(pi.Offset), label, pi.Node, fd(pi.Duration),
			timelineBar(pi.Offset, pi.Duration, v.Elapsed, waterfallWidth))
	}
	if shared > 1 {
		fmt.Fprintf(w, "  note: fsync ×N marks a SHARED device barrier — N groups' flushes\n")
		fmt.Fprintf(w, "  coalesced into the one flush this request waited on, so the\n")
		fmt.Fprintf(w, "  interval's device cost was split N ways (cf. pipelined overlap).\n")
	}
	fmt.Fprintln(w)

	fmt.Fprintf(w, "  %-8s  %-9s  %s\n", "phase", "total", "share of e2e")
	totals := [...]time.Duration{v.Queue, v.Fsync, v.Network, v.Apply}
	for i, p := range allPhases {
		share := 0.0
		if v.Elapsed > 0 {
			share = float64(totals[i]) / float64(v.Elapsed)
		}
		fmt.Fprintf(w, "  %-8s  %-9s  %4.0f%%  %s\n", p, fd(totals[i]), 100*share, bar(share, 32))
	}
	unattributed := v.Elapsed - v.Covered
	share := 0.0
	if v.Elapsed > 0 {
		share = float64(unattributed) / float64(v.Elapsed)
	}
	fmt.Fprintf(w, "  %-8s  %-9s  %4.0f%%  %s\n", "(other)", fd(unattributed), 100*share, bar(share, 32))
	return nil
}

func writeJSON(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(v)
}

// fd renders a duration at microsecond grain — the scale request
// phases live at; columns stay aligned without drowning in digits.
func fd(d time.Duration) string { return d.Round(time.Microsecond).String() }

func trunc(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n-1] + "…"
}

// timelineBar positions an interval on a width-column timeline spanning
// [0, elapsed]: spaces up to the interval's start column, then '#' fill.
// Non-empty intervals render at least one cell so microsecond phases
// stay visible next to millisecond ones.
func timelineBar(offset, dur, elapsed time.Duration, width int) string {
	if elapsed <= 0 {
		return fmt.Sprintf("%*s", width, "")
	}
	start := int(float64(offset) / float64(elapsed) * float64(width))
	end := int(float64(offset+dur) / float64(elapsed) * float64(width))
	if start < 0 {
		start = 0
	}
	if start > width-1 {
		start = width - 1
	}
	if dur > 0 && end <= start {
		end = start + 1
	}
	if end > width {
		end = width
	}
	out := make([]byte, width)
	for i := range out {
		if i >= start && i < end {
			out[i] = '#'
		} else {
			out[i] = ' '
		}
	}
	return string(out)
}

// timeAxis labels the waterfall header with the span's full extent.
func timeAxis(elapsed time.Duration, width int) string {
	label := "0s " + barRule(width-len("0s ")-len(fd(elapsed))-1) + " " + fd(elapsed)
	if len(label) > width {
		return fd(elapsed)
	}
	return label
}

func barRule(n int) string {
	if n < 0 {
		n = 0
	}
	out := make([]byte, n)
	for i := range out {
		out[i] = '-'
	}
	return string(out)
}

func bar(frac float64, width int) string {
	n := int(frac*float64(width) + 0.5)
	if n < 0 {
		n = 0
	}
	if n > width {
		n = width
	}
	out := make([]byte, n)
	for i := range out {
		out[i] = '#'
	}
	return string(out)
}
