// Command perfbench is the repository's KV benchmark. It drives a
// 3-node shard.Cluster, whose nodes talk over loopback TCP with the
// binary codec, through the public Put and GetWith front end, checks
// that the outcome is correct, and prints the end-to-end metrics, or,
// with --trace 1, the per-layer metrics of a traced run.
//
// Build and run it from the repository root:
//
//	bash perfbench/run.sh --workload write --seed 1 --seconds 20 --trace 0
//	bash perfbench/run.sh --steady 10 --seconds 20
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. A failed correctness check
// exits non-zero and prints no metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"slices"
	"time"
)

// setupRounds is how many times a run boots a cluster to time set-up;
// it reports the median and measures on the last cluster.
const setupRounds = 5

func main() {
	name := flag.String("workload", "", "workload: write, shards-mixed or failover")
	seed := flag.Uint64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 20, "length of the measured window in seconds")
	traced := flag.Int("trace", 0, "1 prints the per-layer metrics of a traced run instead of the end-to-end metrics")
	steady := flag.Int("steady", 0, "run every workload of BENCHMARK.json (or only --workload) this many times, interleaved, and print the quartiles of each end-to-end metric against its bound")
	flag.Parse()
	runtime.GOMAXPROCS(runtime.NumCPU())

	if *steady > 0 {
		if err := runSteady(*steady, *seed, *seconds, *name); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	w, ok := lookup(*name)
	if !ok || *seconds < 1 || *traced < 0 || *traced > 1 {
		fmt.Fprintln(os.Stderr, "perfbench: need --workload write|shards-mixed|failover, --seconds >= 1 and --trace 0|1")
		os.Exit(2)
	}
	if err := checkEnv(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: refusing to run:", err)
		os.Exit(2)
	}
	d := time.Duration(*seconds) * time.Second
	var out *report
	var win *window
	var err error
	if *traced == 1 {
		out, win, err = runTraced(w, *seed, d)
	} else {
		out, win, err = runEndToEnd(w, *seed, d)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: %v\n", w.name, *seed, err)
		os.Exit(1)
	}
	fmt.Printf("env: nproc=%d gomaxprocs=%d go=%s device_latency=%v seed=%d workload=%s trace=%d storage=tmpfs(memfd)\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), w.device, *seed, w.name, *traced)
	fmt.Println(win.tails())
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// checkEnv refuses to run where replica logs could not sit on tmpfs or
// the Go scheduler does not use every CPU.
func checkEnv() error {
	f, err := memFile("probe")
	if err != nil {
		return err
	}
	_ = f.Close()
	if runtime.GOMAXPROCS(0) != runtime.NumCPU() {
		return fmt.Errorf("GOMAXPROCS is %d, want nproc %d", runtime.GOMAXPROCS(0), runtime.NumCPU())
	}
	return nil
}

// runEndToEnd boots setupRounds clusters, timing each, and measures the
// last one with tracing off.
func runEndToEnd(w *workload, seed uint64, d time.Duration) (*report, *window, error) {
	var c *benchCluster
	setups := make([]float64, 0, setupRounds)
	for i := 0; i < setupRounds; i++ {
		if c != nil {
			c.stop()
		}
		runtime.GC() // collect the last cluster outside the timed boot
		start := time.Now()
		var err error
		if c, err = boot(w, seed, false); err != nil {
			return nil, nil, fmt.Errorf("boot: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	win, err := c.run(seed, d, nil, nil)
	if err != nil {
		return nil, nil, err
	}
	slices.Sort(setups)
	return newReport(win, win.endToEnd(setups[len(setups)/2])), win, nil
}

// runTraced measures half the window untraced and half traced, on two
// clusters booted from the same seed, and reports the traced half's
// per-layer metrics; comparing the halves gives the tracing overhead.
func runTraced(w *workload, seed uint64, d time.Duration) (*report, *window, error) {
	c, err := boot(w, seed, false)
	if err != nil {
		return nil, nil, fmt.Errorf("boot: %w", err)
	}
	base, err := c.run(seed, d/2, nil, nil)
	if err != nil {
		return nil, nil, err
	}
	baseWriteP50 := ms(quantile(base.latencies(false), 0.5))

	if c, err = boot(w, seed, true); err != nil {
		return nil, nil, fmt.Errorf("boot traced: %w", err)
	}
	var layers map[string]metric
	win, err := c.run(seed, d/2, c.beginLayers, func(win *window) { layers = c.endLayers(win, baseWriteP50) })
	if err != nil {
		return nil, nil, err
	}
	return newReport(win, layers), win, nil
}

// run measures one window on c, then quiesces and stops the cluster and
// runs the correctness gate.
func (c *benchCluster) run(seed uint64, d time.Duration, begin func(), end func(*window)) (*window, error) {
	win := c.measure(seed, d, begin, end)
	ctx, cancel := context.WithTimeout(context.Background(), bootTimeout)
	defer cancel()
	err := c.quiesce(ctx)
	c.stop()
	if err == nil {
		err = c.check(win)
	}
	if err != nil {
		return nil, fmt.Errorf("correctness: %w", err)
	}
	return win, nil
}

func newReport(win *window, m map[string]metric) *report {
	attempted, failed := win.counts()
	return &report{Correct: true, Attempted: attempted, Failed: failed, Metrics: m}
}
