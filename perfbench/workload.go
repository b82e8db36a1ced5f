package main

import (
	"fmt"
	"math"
	"strconv"
	"time"

	"ooc/internal/sim"
)

// workload is one traffic mix. Closed-loop writers each own writerKeys
// keys and Put them back to back; closed-loop readers Get the writers'
// keys, pausing readPause between reads. The open-loop stream sends
// Poisson arrivals at rate regardless of completions, each a
// linearizable Get with probability readFrac and otherwise a Put.
type workload struct {
	name       string
	shards     int
	device     time.Duration // modelled per-node device barrier; 0 = none
	writers    int
	writerKeys int
	readers    int
	readPause  time.Duration
	rate       float64 // open-loop arrivals per second; 0 = none
	readFrac   float64
	keys       int     // open-loop key space
	cuts       bool    // cut the shard-0 leader off at every unavailability mark
	sample     float64 // rtrace sampling probability in the traced run
}

// Why each workload exists is recorded in BENCHMARK.json and README.md.
// Every workload carries some reads so that every end-to-end metric is
// measured on every workload. On write they come from one closed-loop
// reader beside the saturated write path: an open-loop probe there
// measured mostly how late the Go scheduler ran its sender. failover is
// not in BENCHMARK.json because its correctness gate fails (README.md).
var workloads = []workload{
	{name: "write", shards: 1, writers: 8, writerKeys: 64, readers: 1, readPause: time.Millisecond, sample: 1.0 / 32},
	{name: "shards-mixed", shards: 8, device: 2 * time.Millisecond, rate: 1500, readFrac: 0.5, keys: 4096, sample: 0.25},
	{name: "failover", shards: 1, device: 2 * time.Millisecond, rate: 500, readFrac: 0.5, keys: 512, cuts: true, sample: 1},
}

func lookup(name string) (*workload, bool) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], true
		}
	}
	return nil, false
}

// op is one generated operation. A write stores version, which counts
// up per key from 1, so every key has a single writer whose versions
// increase — the discipline checker.CheckRegisterLinearizable needs.
type op struct {
	due     time.Duration // open loop: offset from the window start
	key     string
	read    bool
	version int64
}

// RNG stream roles, disjoint so the open-loop stream and every
// closed-loop client draw independently from the one seed.
const (
	openRole   uint64 = 1
	writerRole uint64 = 2
	readerRole uint64 = 3
)

// keySpace lists the keys the open-loop stream and the closed-loop
// readers pick from: the writers' keys when there are writers.
func keySpace(w *workload) []string {
	if w.writers > 0 {
		keys := make([]string, 0, w.writers*w.writerKeys)
		for c := 0; c < w.writers; c++ {
			keys = append(keys, writerKeys(c, w.writerKeys)...)
		}
		return keys
	}
	keys := make([]string, w.keys)
	for i := range keys {
		keys[i] = fmt.Sprintf("k%04d", i)
	}
	return keys
}

func writerKeys(writer, n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("w%d-%02d", writer, i)
	}
	return keys
}

// schedule draws the open-loop arrivals that fall within a window of
// length d.
func schedule(w *workload, seed uint64, d time.Duration) []op {
	if w.rate == 0 {
		return nil
	}
	rng := sim.NewRNG(seed).Stream(openRole, 0)
	keys := keySpace(w)
	next := make(map[string]int64)
	var ops []op
	t := 0.0
	for {
		t += -math.Log(1-rng.Float64()) / w.rate
		due := time.Duration(t * float64(time.Second))
		if due >= d {
			return ops
		}
		o := op{due: due, key: keys[rng.Intn(len(keys))]}
		if rng.Float64() < w.readFrac {
			o.read = true
		} else {
			next[o.key]++
			o.version = next[o.key]
		}
		ops = append(ops, o)
	}
}

// clientStream is one closed-loop client's endless op sequence: a
// uniformly drawn key, written with that key's next version by a
// writer, read by a reader.
type clientStream struct {
	rng  *sim.RNG
	keys []string
	ver  []int64 // nil for a reader
}

func newWriterStream(seed uint64, writer, nkeys int) *clientStream {
	return &clientStream{
		rng:  sim.NewRNG(seed).Stream(writerRole, uint64(writer)),
		keys: writerKeys(writer, nkeys),
		ver:  make([]int64, nkeys),
	}
}

func newReaderStream(seed uint64, reader int, keys []string) *clientStream {
	return &clientStream{rng: sim.NewRNG(seed).Stream(readerRole, uint64(reader)), keys: keys}
}

func (s *clientStream) next() op {
	i := s.rng.Intn(len(s.keys))
	if s.ver == nil {
		return op{key: s.keys[i], read: true}
	}
	s.ver[i]++
	return op{key: s.keys[i], version: s.ver[i]}
}

// value is the stored form of a version; parseVersion inverts it.
func value(version int64) string { return fmt.Sprintf("%016d", version) }

func parseVersion(v string) (int64, error) { return strconv.ParseInt(v, 10, 64) }
