package main

import (
	"encoding/json"
	"os"
	"testing"
	"time"
)

// TestWrappedShardsMixed runs shards-mixed with every timing wrapper in
// place and checks that the wrappers leave the mechanisms the workload
// exists to measure working: the storage wrapper must still hand each
// replica to its node's SyncCoalescer, so barriers cover several groups,
// and the state-machine wrapper must still serve ReadIndex reads.
func TestWrappedShardsMixed(t *testing.T) {
	if testing.Short() {
		t.Skip("boots a cluster and measures for two seconds")
	}
	w, _ := lookup("shards-mixed")
	c, err := boot(w, 5, true)
	if err != nil {
		t.Fatal(err)
	}
	var layers map[string]metric
	var readIndexReads float64
	win, err := c.run(5, 2*time.Second, c.beginLayers, func(win *window) {
		layers = c.endLayers(win, 1)
		readIndexReads = delta{c.lay.snap0, c.lay.reg.Snapshot()}.counter("raft_reads_served_total", `mode="readindex"`)
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := layers["syncer.mean_width"].Value; got <= 1 {
		t.Errorf("syncer.mean_width = %v, want > 1: wrapped replicas no longer coalesce", got)
	}
	if readIndexReads == 0 || layers["raft.read_rounds_per_read"].Value == 0 {
		t.Errorf("%v ReadIndex reads in %v rounds per read, want both > 0", readIndexReads, layers["raft.read_rounds_per_read"].Value)
	}
	if got := layers["raft.elections"].Value; got != 0 {
		t.Errorf("raft.elections = %v during the window, want 0", got)
	}
	if _, failed := win.counts(); failed != 0 {
		t.Errorf("%d ops failed", failed)
	}
	checkNames(t, "end_to_end", win.endToEnd(1))
	checkNames(t, "per_layer", layers)
}

// checkNames checks that got holds exactly the metrics BENCHMARK.json
// lists under key, with the units it gives.
func checkNames(t *testing.T, key string, got map[string]metric) {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec map[string]json.RawMessage
	var want []struct{ Name, Unit string }
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(spec[key], &want); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Errorf("%s: reported %d metrics, BENCHMARK.json lists %d", key, len(got), len(want))
	}
	for _, m := range want {
		if g, ok := got[m.Name]; !ok || g.Unit != m.Unit {
			t.Errorf("%s: %s reported as %+v (present %v), BENCHMARK.json unit %q", key, m.Name, g, ok, m.Unit)
		}
	}
}
