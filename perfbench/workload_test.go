package main

import (
	"reflect"
	"testing"
	"time"
)

// TestSeedRegeneratesOps checks that one seed regenerates the same op
// sequence for every workload, and that another seed does not.
func TestSeedRegeneratesOps(t *testing.T) {
	const d = 2 * time.Second
	for i := range workloads {
		w := &workloads[i]
		t.Run(w.name, func(t *testing.T) {
			a, b := schedule(w, 7, d), schedule(w, 7, d)
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("seed 7 gave %d and %d different open-loop ops", len(a), len(b))
			}
			if w.rate > 0 && reflect.DeepEqual(a, schedule(w, 8, d)) {
				t.Fatal("seeds 7 and 8 gave the same open-loop ops")
			}
			var clients []func(seed uint64) *clientStream
			for wr := 0; wr < w.writers; wr++ {
				clients = append(clients, func(seed uint64) *clientStream { return newWriterStream(seed, wr, w.writerKeys) })
			}
			for rd := 0; rd < w.readers; rd++ {
				clients = append(clients, func(seed uint64) *clientStream { return newReaderStream(seed, rd, keySpace(w)) })
			}
			for ci, client := range clients {
				s1, s2, s3 := client(7), client(7), client(8)
				same := true
				for n := 0; n < 1000; n++ {
					o1, o2, o3 := s1.next(), s2.next(), s3.next()
					if o1 != o2 {
						t.Fatalf("client %d op %d: seed 7 gave %+v then %+v", ci, n, o1, o2)
					}
					same = same && o1 == o3
				}
				if same {
					t.Fatalf("client %d: seeds 7 and 8 gave the same ops", ci)
				}
			}
		})
	}
}

// TestScheduleKeepsWritersSingle checks the open-loop versions: each key's
// writes count up from 1 in due order, which the linearizability check
// relies on.
func TestScheduleKeepsWritersSingle(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		last := make(map[string]int64)
		for _, o := range schedule(w, 3, 2*time.Second) {
			if o.read {
				continue
			}
			if o.version != last[o.key]+1 {
				t.Fatalf("%s: key %s version %d follows %d", w.name, o.key, o.version, last[o.key])
			}
			last[o.key] = o.version
		}
	}
}
