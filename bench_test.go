package ooc

// One benchmark per experiment in DESIGN.md §5. Each iteration runs a
// single representative trial of the experiment's workload; the full
// sweeps and tables come from `go run ./cmd/oocbench`. Benchmarks assert
// safety on every iteration, so `go test -bench=.` doubles as a stress
// run.

import (
	"bytes"
	"context"
	"encoding/gob"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ooc/internal/adapters"
	"ooc/internal/bench"
	"ooc/internal/benor"
	"ooc/internal/core"
	"ooc/internal/multivalue"
	"ooc/internal/netsim"
	"ooc/internal/phaseking"
	"ooc/internal/raft"
	"ooc/internal/sharedmem"
	"ooc/internal/sim"
	"ooc/internal/workload"
)

// benOrTrial runs one full Ben-Or consensus (decomposed or monolithic)
// under the given seed.
func benOrTrial(b *testing.B, decomposed bool, n int, split workload.Split, seed uint64) {
	tFaults := (n - 1) / 2
	rng := sim.NewRNG(seed)
	inputs := workload.BinaryInputs(split, n, rng)
	nw := netsim.New(n, netsim.WithSeed(seed))
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	decisions := make([]core.Decision[int], n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for id := 0; id < n; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			if decomposed {
				decisions[id], errs[id] = benor.RunDecomposed(ctx, nw.Node(id), rng.Fork(uint64(id)), tFaults, inputs[id],
					core.WithMaxRounds(5000))
			} else {
				decisions[id], errs[id] = benor.RunMonolithic(ctx, nw.Node(id), rng.Fork(uint64(id)), tFaults, inputs[id], 5000, nil)
			}
		}(id)
	}
	wg.Wait()
	cancel()
	for id := 0; id < n; id++ {
		if errs[id] != nil {
			b.Errorf("node %d: %v", id, errs[id])
			return
		}
		if decisions[id].Value != decisions[0].Value {
			b.Error("agreement violated")
			return
		}
	}
}

// benchBenOr iterates benOrTrial over per-iteration seeds.
func benchBenOr(b *testing.B, decomposed bool, n int, split workload.Split) {
	b.Helper()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		benOrTrial(b, decomposed, n, split, uint64(i)+1)
	}
}

// benchBenOrSeedSweepParallel is the multi-seed sweep variant: concurrent
// goroutines drain a shared atomic seed counter, each running a fully
// independent seeded trial — the b.RunParallel analogue of the experiment
// harness's cell pool. Throughput scales with GOMAXPROCS because trials
// share no network, recorder, or RNG state.
func benchBenOrSeedSweepParallel(b *testing.B, n int, split workload.Split) {
	b.Helper()
	b.ReportAllocs()
	var seedCtr atomic.Uint64
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			benOrTrial(b, true, n, split, seedCtr.Add(1))
		}
	})
}

// BenchmarkE1BenOrSeedSweepParallel: experiment E1's workload as a
// parallel multi-seed sweep (n=5, half split).
func BenchmarkE1BenOrSeedSweepParallel(b *testing.B) {
	benchBenOrSeedSweepParallel(b, 5, workload.SplitHalf)
}

// BenchmarkE9SeedSweepParallel: experiment E9's heavy-tail workload as a
// parallel multi-seed sweep (n=9, half split).
func BenchmarkE9SeedSweepParallel(b *testing.B) {
	benchBenOrSeedSweepParallel(b, 9, workload.SplitHalf)
}

// BenchmarkE1BenOrDecomposed: experiment E1 — the paper's Ben-Or under
// Algorithm 1 (n=5, adversarial half split).
func BenchmarkE1BenOrDecomposed(b *testing.B) {
	benchBenOr(b, true, 5, workload.SplitHalf)
}

// BenchmarkE2BenOrBaseline: experiment E2 — the monolithic baseline on
// the identical workload.
func BenchmarkE2BenOrBaseline(b *testing.B) {
	benchBenOr(b, false, 5, workload.SplitHalf)
}

// benchPhaseKing runs one full Phase-King consensus.
func benchPhaseKing(b *testing.B, baseline bool) {
	b.Helper()
	b.ReportAllocs()
	ctx := context.Background()
	for i := 0; i < b.N; i++ {
		cfg := phaseking.Config{
			N: 7, T: 2,
			Inputs:    map[int]int{2: 0, 3: 1, 4: 0, 5: 1, 6: 0},
			Byzantine: map[int]phaseking.Adversary{0: phaseking.EquivocateAdversary{}, 1: phaseking.SilentAdversary{}},
			Rule:      phaseking.RuleFinalValue,
		}
		var (
			res phaseking.Result
			err error
		)
		if baseline {
			res, err = phaseking.RunBaseline(ctx, cfg)
		} else {
			res, err = phaseking.Run(ctx, cfg)
		}
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Errs) > 0 || !res.AgreementHolds() {
			b.Fatalf("bad run: %+v", res)
		}
	}
}

// BenchmarkE3PhaseKing: experiment E3 — decomposed Phase-King (n=7, t=2,
// equivocate + silent Byzantine kings).
func BenchmarkE3PhaseKing(b *testing.B) {
	benchPhaseKing(b, false)
}

// BenchmarkE4PhaseKingBaseline: experiment E4 — the monolithic baseline.
func BenchmarkE4PhaseKingBaseline(b *testing.B) {
	benchPhaseKing(b, true)
}

// BenchmarkEAKingDiversion: experiment EA — the attack run (decomposed,
// first-commit rule). Each iteration reproduces the agreement violation.
func BenchmarkEAKingDiversion(b *testing.B) {
	b.ReportAllocs()
	ctx := context.Background()
	for i := 0; i < b.N; i++ {
		res, err := phaseking.Run(ctx, phaseking.Config{
			N: 4, T: 1,
			Inputs:    map[int]int{1: 0, 2: 0, 3: 1},
			Byzantine: map[int]phaseking.Adversary{0: phaseking.KingDiversionAdversary()},
			Rule:      phaseking.RuleFirstCommit,
		})
		if err != nil {
			b.Fatal(err)
		}
		if res.AgreementHolds() {
			b.Fatal("attack did not reproduce")
		}
	}
}

// BenchmarkE5RaftConsensus: experiment E5 — Raft single-decree consensus
// via D&S (n=3, real timers on the simulated network).
func BenchmarkE5RaftConsensus(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		const n = 3
		seed := uint64(i) + 1
		nw := netsim.New(n, netsim.WithSeed(seed))
		rng := sim.NewRNG(seed)
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		cns := make([]*raft.ConsensusNode, n)
		for id := 0; id < n; id++ {
			cn, err := raft.NewConsensusNode(raft.Config{
				ID:                id,
				Endpoint:          nw.Node(id),
				RNG:               rng.Fork(uint64(id)),
				ElectionTimeout:   20 * time.Millisecond,
				HeartbeatInterval: 4 * time.Millisecond,
			}, fmt.Sprintf("v%d", id))
			if err != nil {
				b.Fatal(err)
			}
			cns[id] = cn
		}
		results := make([]any, n)
		var wg sync.WaitGroup
		for id := 0; id < n; id++ {
			wg.Add(1)
			go func(id int) {
				defer wg.Done()
				results[id], _ = cns[id].Run(ctx)
			}(id)
		}
		wg.Wait()
		cancel()
		for id := 1; id < n; id++ {
			if results[id] != results[0] {
				b.Fatal("agreement violated")
			}
		}
	}
}

// BenchmarkE6RaftVAC: experiment E6 — the VAC view of Raft under the
// generic template (n=3).
func BenchmarkE6RaftVAC(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		const n = 3
		seed := uint64(i) + 1
		nw := netsim.New(n, netsim.WithSeed(seed))
		rng := sim.NewRNG(seed)
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		decisions := make([]core.Decision[string], n)
		errs := make([]error, n)
		var wg sync.WaitGroup
		for id := 0; id < n; id++ {
			node, err := raft.NewNode(raft.Config{
				ID:                id,
				Endpoint:          nw.Node(id),
				RNG:               rng.Fork(uint64(id)),
				ElectionTimeout:   20 * time.Millisecond,
				HeartbeatInterval: 4 * time.Millisecond,
				ManualCampaign:    true,
			})
			if err != nil {
				b.Fatal(err)
			}
			wg.Add(1)
			go func(id int, node *raft.Node) {
				defer wg.Done()
				decisions[id], errs[id] = raft.RunVACConsensus[string](ctx, node, fmt.Sprintf("v%d", id))
			}(id, node)
		}
		wg.Wait()
		cancel()
		for id := 0; id < n; id++ {
			if errs[id] != nil {
				b.Fatal(errs[id])
			}
			if decisions[id].Value != decisions[0].Value {
				b.Fatal("agreement violated")
			}
		}
	}
}

// BenchmarkE7VACFromAC: experiment E7 — one round of the Section 5
// composite VAC over shared-memory ACs (n=8, concurrent).
func BenchmarkE7VACFromAC(b *testing.B) {
	b.ReportAllocs()
	const n = 8
	rng := sim.NewRNG(3)
	for i := 0; i < b.N; i++ {
		store1 := adapters.NewSharedACStore(n)
		store2 := adapters.NewSharedACStore(n)
		var wg sync.WaitGroup
		for id := 0; id < n; id++ {
			wg.Add(1)
			go func(id, v int) {
				defer wg.Done()
				vac := adapters.NewVACFromACs[int](store1.Object(id), store2.Object(id))
				if _, _, err := vac.Propose(context.Background(), v, 1); err != nil {
					b.Error(err)
				}
			}(id, rng.Bit())
		}
		wg.Wait()
	}
}

// BenchmarkE8OutcomeClasses: experiment E8 — one instrumented Ben-Or run
// per iteration, counting the three outcome classes.
func BenchmarkE8OutcomeClasses(b *testing.B) {
	b.ReportAllocs()
	const n, tFaults = 5, 2
	for i := 0; i < b.N; i++ {
		seed := uint64(i) + 1
		rng := sim.NewRNG(seed)
		inputs := workload.BinaryInputs(workload.SplitHalf, n, rng)
		nw := netsim.New(n, netsim.WithSeed(seed))
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		log := &adapters.OutcomeLog{}
		var wg sync.WaitGroup
		for id := 0; id < n; id++ {
			wg.Add(1)
			go func(id int) {
				defer wg.Done()
				vac, err := benor.NewVAC(nw.Node(id), tFaults)
				if err != nil {
					b.Error(err)
					return
				}
				iv := adapters.NewInstrumentedVAC[int](vac, log, id)
				if _, err := core.RunVAC[int](ctx, iv, benor.NewReconciliator(rng.Fork(uint64(id))), inputs[id],
					core.WithMaxRounds(5000)); err != nil {
					b.Error(err)
				}
			}(id)
		}
		wg.Wait()
		cancel()
		if len(log.All()) == 0 {
			b.Fatal("no outcomes recorded")
		}
	}
}

// BenchmarkE9RoundsToConsensus: experiment E9 — one half-split Ben-Or run
// at n=9 per iteration (the heavy tail the distribution table measures).
func BenchmarkE9RoundsToConsensus(b *testing.B) {
	benchBenOr(b, true, 9, workload.SplitHalf)
}

// BenchmarkE10MessageComplexity: experiment E10 — one traced Ben-Or run,
// reporting messages per operation.
func BenchmarkE10MessageComplexity(b *testing.B) {
	b.ReportAllocs()
	tbl, err := bench.RunE10(bench.Suite{Trials: 1, Quick: true, BaseSeed: uint64(b.N)})
	if err != nil {
		b.Fatal(err)
	}
	if len(tbl.Rows) == 0 {
		b.Fatal("no rows")
	}
	b.ResetTimer()
	benchBenOr(b, true, 5, workload.SplitHalf)
}

// BenchmarkF1RaftMessageCodec: figure F1 — encode/decode all four Raft
// message formats.
func BenchmarkF1RaftMessageCodec(b *testing.B) {
	b.ReportAllocs()
	for _, wt := range raft.WireTypes() {
		gob.Register(wt)
	}
	msgs := []any{
		raft.RequestVote{Term: 3, CandidateID: 1, LastLogIndex: 7, LastLogTerm: 2},
		raft.RequestVoteReply{Term: 3, VoteGranted: true},
		raft.AppendEntries{Term: 3, LeaderID: 1, PrevLogIndex: 6, PrevLogTerm: 2,
			Entries: []raft.Entry{{Term: 3, Command: raft.DS{Value: "v"}}}, LeaderCommit: 6},
		raft.AppendEntriesReply{Term: 3, Success: true, MatchIndex: 7},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		enc := gob.NewEncoder(&buf)
		dec := gob.NewDecoder(&buf)
		for _, m := range msgs {
			env := struct{ Payload any }{Payload: m}
			if err := enc.Encode(env); err != nil {
				b.Fatal(err)
			}
			var out struct{ Payload any }
			if err := dec.Decode(&out); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkF2RaftStateMachine: figure F2 — a full election + replication
// cycle driving every Figure 2 state variable.
func BenchmarkF2RaftStateMachine(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		const n = 3
		seed := uint64(i) + 1
		nw := netsim.New(n, netsim.WithSeed(seed))
		rng := sim.NewRNG(seed)
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		kvs := make([]*raft.KVStore, n)
		nodes := make([]*raft.Node, n)
		for id := 0; id < n; id++ {
			kvs[id] = &raft.KVStore{}
			node, err := raft.NewNode(raft.Config{
				ID:                id,
				Endpoint:          nw.Node(id),
				RNG:               rng.Fork(uint64(id)),
				ElectionTimeout:   20 * time.Millisecond,
				HeartbeatInterval: 4 * time.Millisecond,
				StateMachine:      kvs[id],
			})
			if err != nil {
				b.Fatal(err)
			}
			nodes[id] = node
			node.Start(ctx)
		}
		var idx int
		for {
			leader := -1
			for id, node := range nodes {
				if node.Status().State == raft.Leader {
					leader = id
				}
			}
			if leader >= 0 {
				var err error
				idx, err = nodes[leader].Propose(ctx, raft.KVCommand{Op: "set", Key: "k", Value: "v"})
				if err == nil {
					break
				}
			}
			time.Sleep(time.Millisecond)
		}
		for done := false; !done; {
			done = true
			for _, kv := range kvs {
				if kv.AppliedIndex() < idx {
					done = false
				}
			}
			if !done {
				time.Sleep(time.Millisecond)
			}
		}
		cancel()
	}
}

// BenchmarkE11Multivalued: experiment E11 — one multivalued consensus
// run (n=5, 3-value domain) per iteration.
func BenchmarkE11Multivalued(b *testing.B) {
	b.ReportAllocs()
	const n, tFaults = 5, 2
	for i := 0; i < b.N; i++ {
		seed := uint64(i) + 1
		rng := sim.NewRNG(seed)
		nw := netsim.New(n, netsim.WithSeed(seed))
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		inputs := make([]string, n)
		for id := range inputs {
			inputs[id] = fmt.Sprintf("v%d", rng.Intn(3))
		}
		decisions := make([]core.Decision[string], n)
		errs := make([]error, n)
		var wg sync.WaitGroup
		for id := 0; id < n; id++ {
			wg.Add(1)
			go func(id int) {
				defer wg.Done()
				decisions[id], errs[id] = multivalue.RunDecomposed[string](ctx, nw.Node(id), rng.Fork(uint64(id)), tFaults, inputs[id],
					core.WithMaxRounds(20000))
			}(id)
		}
		wg.Wait()
		cancel()
		for id := 0; id < n; id++ {
			if errs[id] != nil {
				b.Fatal(errs[id])
			}
			if decisions[id].Value != decisions[0].Value {
				b.Fatal("agreement violated")
			}
		}
	}
}

// BenchmarkE12SharedMemory: experiment E12 — one shared-memory consensus
// (Gafni AC + probabilistic-write conciliator, n=8) per iteration.
func BenchmarkE12SharedMemory(b *testing.B) {
	b.ReportAllocs()
	const n = 8
	for i := 0; i < b.N; i++ {
		seed := uint64(i) + 1
		rng := sim.NewRNG(seed)
		cons := sharedmem.NewConsensus(n)
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		decisions := make([]core.Decision[int], n)
		errs := make([]error, n)
		var wg sync.WaitGroup
		for id := 0; id < n; id++ {
			wg.Add(1)
			go func(id int) {
				defer wg.Done()
				decisions[id], errs[id] = cons.Run(ctx, id, rng.Fork(uint64(id)), id%2,
					core.WithMaxRounds(20000))
			}(id)
		}
		wg.Wait()
		cancel()
		for id := 0; id < n; id++ {
			if errs[id] != nil {
				b.Fatal(errs[id])
			}
			if decisions[id].Value != decisions[0].Value {
				b.Fatal("agreement violated")
			}
		}
	}
}

// BenchmarkE14RaftThroughput: experiment E14 — one closed-loop throughput
// window against a FileStorage-backed cluster, the group-commit and
// pipelining hot path. Reports committed ops/sec and fsyncs per op.
func BenchmarkE14RaftThroughput(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := bench.RunKV(bench.KVConfig{
			Nodes:           3,
			Shards:          1,
			ClientsPerShard: 8,
			Duration:        200 * time.Millisecond,
			Seed:            uint64(i) + 1,
			FileStorage:     true,
		})
		if err != nil {
			b.Fatal(err)
		}
		if res.Ops == 0 {
			b.Fatal("no ops committed")
		}
		b.ReportMetric(res.OpsPerSec, "ops/sec")
		b.ReportMetric(res.FsyncsPerOp, "fsyncs/op")
	}
}

// BenchmarkE16MultiShard: experiment E16 — one closed-loop multi-Raft
// window (2 shards over 3 nodes, file storage). Asserts the shard
// router spread work across groups and leadership across nodes; reports
// aggregate committed ops/sec.
func BenchmarkE16MultiShard(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := bench.RunKV(bench.KVConfig{
			Nodes:           3,
			Shards:          2,
			ClientsPerShard: 8,
			Duration:        200 * time.Millisecond,
			Seed:            uint64(i) + 1,
			FileStorage:     true,
		})
		if err != nil {
			b.Fatal(err)
		}
		if res.Ops == 0 {
			b.Fatal("no ops committed")
		}
		for s, n := range res.PerShardOps {
			if n == 0 {
				b.Fatalf("shard %d committed nothing: router funnelled %v", s, res.PerShardOps)
			}
		}
		if res.LeaderSpread < 2 {
			b.Fatalf("leaders on %d node(s), placement %v", res.LeaderSpread, res.LeaderPlacement)
		}
		b.ReportMetric(res.OpsPerSec, "ops/sec")
		b.ReportMetric(res.FsyncsPerOp, "fsyncs/op")
	}
}

// BenchmarkE18GroupCommit: experiment E18 — one closed-loop multi-Raft
// window (4 shards over 3 nodes, file storage) with all of a node's
// replicas sharing one modeled 2ms device, sync coalescing on. Asserts
// the node-wide syncer actually merged flushes (mean barrier width above
// 1) and reports ops/sec plus the device-barrier cost per op.
func BenchmarkE18GroupCommit(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := bench.RunKV(bench.KVConfig{
			Nodes:           3,
			Shards:          4,
			ClientsPerShard: 1,
			Duration:        200 * time.Millisecond,
			Seed:            uint64(i) + 1,
			FileStorage:     true,
			DeviceLatency:   2 * time.Millisecond,
			ElectionTimeout: 150 * time.Millisecond,
		})
		if err != nil {
			b.Fatal(err)
		}
		if res.Ops == 0 {
			b.Fatal("no ops committed")
		}
		if res.Barriers == 0 {
			b.Fatal("no device barriers recorded: syncer not wired")
		}
		if res.MeanWidth <= 1.0 {
			b.Fatalf("no cross-group coalescing: mean barrier width %.2f over %d barriers",
				res.MeanWidth, res.Barriers)
		}
		b.ReportMetric(res.OpsPerSec, "ops/sec")
		b.ReportMetric(res.BarriersPerOp, "barriers/op")
		b.ReportMetric(res.MeanWidth, "width")
	}
}

func BenchmarkE15ReadFastPath(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := bench.RunKV(bench.KVConfig{
			Nodes:           3,
			Shards:          1,
			ClientsPerShard: 8,
			Duration:        200 * time.Millisecond,
			Seed:            uint64(i) + 1,
			FileStorage:     true,
			ReadRatio:       0.9,
			ReadMode:        raft.ReadLease,
			LeaseDuration:   15 * time.Millisecond,
			Keys:            256,
		})
		if err != nil {
			b.Fatal(err)
		}
		if res.Ops == 0 {
			b.Fatal("no ops completed")
		}
		if res.Reads > 0 && res.LeaseReads+res.IndexReads == 0 {
			b.Fatal("reads completed but none were served by the fast path")
		}
		b.ReportMetric(res.OpsPerSec, "ops/sec")
		b.ReportMetric(res.ReadP50.Seconds()*1e3, "read-p50-ms")
	}
}
