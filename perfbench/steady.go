package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"slices"
	"strconv"
)

// spec is the part of BENCHMARK.json the steadiness mode reads.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name  string  `json:"name"`
		Unit  string  `json:"unit"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
}

// runSteady runs every workload of BENCHMARK.json k times, interleaved
// round by round with seeds seed, seed+1, ..., each run in a fresh
// process as the benchmark is normally run; a non-empty only restricts
// it to that workload. Each run's result line goes to standard error.
// For every end-to-end metric
// it prints the median, the quartiles (Python's statistics.quantiles,
// n=4), and the spread (Q3−Q1)/median against the metric's bound. It
// fails if any spread other than setup_s's exceeds its bound.
func runSteady(k int, seed uint64, seconds int, only string) error {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return fmt.Errorf("steady mode runs from the repository root: %w", err)
	}
	var sp spec
	if err := json.Unmarshal(raw, &sp); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	names := make([]string, 0, len(sp.Workloads))
	for _, w := range sp.Workloads {
		if only == "" || w.Name == only {
			names = append(names, w.Name)
		}
	}
	vals := make(map[string]map[string][]float64)
	for round := 0; round < k; round++ {
		s := seed + uint64(round)
		for _, name := range names {
			cmd := exec.Command(exe, "--workload", name, "--seed", strconv.FormatUint(s, 10),
				"--seconds", strconv.Itoa(seconds), "--trace", "0")
			cmd.Stderr = os.Stderr
			out, err := cmd.Output()
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", name, s, err)
			}
			lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
			var rep report
			if err := json.Unmarshal(lines[len(lines)-1], &rep); err != nil || !rep.Correct {
				return fmt.Errorf("%s seed %d: no correct result (%v)", name, s, err)
			}
			if vals[name] == nil {
				vals[name] = make(map[string][]float64)
			}
			for m, v := range rep.Metrics {
				vals[name][m] = append(vals[name][m], v.Value)
			}
			fmt.Fprintf(os.Stderr, "round %d/%d %s seed %d: %s\n", round+1, k, name, s, lines[len(lines)-1])
		}
	}
	over := 0
	fmt.Printf("%-13s %-14s %12s %12s %12s %8s %6s\n", "workload", "metric", "median", "q1", "q3", "spread", "bound")
	for _, name := range names {
		for _, m := range sp.EndToEnd {
			v := slices.Clone(vals[name][m.Name])
			slices.Sort(v)
			q1, med, q3 := quartiles(v)
			spread := ratio(q3-q1, med)
			mark := ""
			if spread > m.Bound && m.Name != "setup_s" {
				mark = " OVER"
				over++
			}
			fmt.Printf("%-13s %-14s %12.4f %12.4f %12.4f %8.4f %6.2f%s\n", name, m.Name, med, q1, q3, spread, m.Bound, mark)
		}
	}
	if over > 0 {
		return fmt.Errorf("%d spreads exceed their bound", over)
	}
	return nil
}

// quartiles mirrors Python's statistics.quantiles(data, n=4) with its
// default exclusive method, on sorted data.
func quartiles(sorted []float64) (q1, q2, q3 float64) {
	n := len(sorted)
	if n < 2 {
		if n == 1 {
			return sorted[0], sorted[0], sorted[0]
		}
		return 0, 0, 0
	}
	q := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		return (sorted[j-1]*float64(4-delta) + sorted[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}
