// Snapshot-serving benchmarks: what a reader pays when the world is
// republished under it. The snapshot design publishes each new world
// through one atomic pointer: readers load it and never touch a lock, so
// a sustained mutation stream should leave reader p99 within 10% of the
// idle run. The RWMutex discipline it replaced — readers share-locked,
// the writer customizing under the exclusive lock — put reader p99 at
// 29× idle on the same mix; its harness is retired and the figure kept in
// the `make bench-snapshot` row of the benchmark history in CHANGES.md.
// `make bench-snapshot` records the snapshot path.
package repro_test

import (
	"context"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/gridgen"
	"repro/internal/route"
)

const snapBenchK = 30

// snapBenchPairs returns a fixed query mix so every variant prices the
// same work.
func snapBenchPairs(g *graph.Graph) []route.Pair {
	rng := rand.New(rand.NewSource(benchSeed))
	n := g.NumNodes()
	pairs := make([]route.Pair, 512)
	for i := range pairs {
		pairs[i] = route.Pair{
			From: graph.NodeID(rng.Intn(n)),
			To:   graph.NodeID(rng.Intn(n)),
		}
	}
	return pairs
}

// snapBenchBatch fills changes with a random re-pricing of base edges,
// 0.5×–3× free-flow, the same mix the traffic-stream simulator sends.
func snapBenchBatch(rng *rand.Rand, base []graph.Edge, changes []graph.EdgeCostChange) {
	for i := range changes {
		e := base[rng.Intn(len(base))]
		changes[i] = graph.EdgeCostChange{
			Tail: e.Tail, Head: e.Head,
			Cost: e.Cost * (0.5 + 2.5*rng.Float64()),
		}
	}
}

// measureReaders drives b.N queries through query from parallel readers,
// collecting per-query latency, and reports the p99 alongside ns/op.
func measureReaders(b *testing.B, pairs []route.Pair, query func(from, to graph.NodeID)) {
	var next atomic.Uint64
	var mu sync.Mutex
	var all []time.Duration
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		local := make([]time.Duration, 0, 4096)
		for pb.Next() {
			p := pairs[next.Add(1)%uint64(len(pairs))]
			t0 := time.Now()
			query(p.From, p.To)
			local = append(local, time.Since(t0))
		}
		mu.Lock()
		all = append(all, local...)
		mu.Unlock()
	})
	b.StopTimer()
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	if len(all) > 0 {
		b.ReportMetric(float64(all[len(all)*99/100].Nanoseconds()), "p99-ns")
	}
}

// BenchmarkSnapshotReadUnderMutation measures the real Service's
// lock-free read path: an atomic snapshot load and a CH query against
// that snapshot's index, idle and then under a sustained
// ApplyTrafficBatchCtx stream republishing the world as fast as
// customization allows.
func BenchmarkSnapshotReadUnderMutation(b *testing.B) {
	g := gridgen.MustGenerate(gridgen.Config{K: snapBenchK, Model: gridgen.Variance, Seed: benchSeed})
	svc := route.NewService(g)
	if err := svc.EnableCH(); err != nil {
		b.Fatal(err)
	}
	pairs := snapBenchPairs(g)
	base := g.Edges()
	ctx := context.Background()

	query := func(from, to graph.NodeID) {
		ix := svc.Snapshot().CH()
		if ix == nil {
			b.Error("a published snapshot carries no index")
			return
		}
		if _, err := ix.QueryCtx(ctx, from, to); err != nil {
			b.Error(err)
		}
	}

	b.Run("idle", func(b *testing.B) {
		measureReaders(b, pairs, query)
	})

	b.Run("mutating", func(b *testing.B) {
		stop := make(chan struct{})
		var wg sync.WaitGroup
		var published atomic.Uint64
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(benchSeed))
			changes := make([]graph.EdgeCostChange, 16)
			for {
				select {
				case <-stop:
					return
				default:
				}
				snapBenchBatch(rng, base, changes)
				if _, err := svc.ApplyTrafficBatchCtx(context.Background(), changes); err != nil {
					b.Error(err)
					return
				}
				published.Add(1)
			}
		}()
		measureReaders(b, pairs, query)
		close(stop)
		wg.Wait()
		b.ReportMetric(float64(published.Load()), "publishes")
	})
}
