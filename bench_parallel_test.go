// Concurrent-engine benchmarks: the workloads behind this repo's "millions
// of users" north star. Where bench_test.go reproduces the paper's
// single-query tables, this file measures what the pooled workspaces,
// parallel ALT preprocessing, and the generation-keyed route cache buy when
// the same graph serves a stream of queries — the paper's observation that
// storage management dominates single-pair cost, answered with amortisation.
//
// `go test -bench 'Parallel|Repeated|Preprocess|Batch' -benchmem .`
// regenerates the numbers recorded in the `make bench` row of the
// benchmark history in CHANGES.md.
package repro_test

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"repro/internal/alt"
	"repro/internal/core"
	"repro/internal/estimator"
	"repro/internal/graph"
	"repro/internal/gridgen"
	"repro/internal/mpls"
	"repro/internal/route"
	"repro/internal/search"
)

// BenchmarkRepeatedQueries is the alloc-amortisation exhibit: the same
// single-pair query over and over on one graph. With pooled, epoch-stamped
// workspaces the steady state allocates only the returned path, not the
// O(n) dist/prev/visited arrays of every classic implementation.
func BenchmarkRepeatedQueries(b *testing.B) {
	const k = 30
	g := gridgen.MustGenerate(gridgen.Config{K: k, Model: gridgen.Variance, Seed: benchSeed})
	s, d := gridgen.Pair(k, gridgen.Diagonal, benchSeed)
	for _, r := range memRunners() {
		b.Run(r.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := r.run(g, s, d); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	b.Run("bidirectional", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := search.Bidirectional(g, s, d); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkSearchParallel drives the search engine from every core at once;
// the workspace pool hands each goroutine its own recycled state, so
// throughput scales with cores instead of serialising on allocation.
func BenchmarkSearchParallel(b *testing.B) {
	const k = 30
	g := gridgen.MustGenerate(gridgen.Config{K: k, Model: gridgen.Variance, Seed: benchSeed})
	s, d := gridgen.Pair(k, gridgen.Diagonal, benchSeed)
	b.Run("dijkstra", func(b *testing.B) {
		b.ReportAllocs()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				if _, err := search.Dijkstra(g, s, d); err != nil {
					b.Fatal(err)
				}
			}
		})
	})
	b.Run("astar-euclidean", func(b *testing.B) {
		b.ReportAllocs()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				if _, err := search.AStar(g, s, d, estimator.Euclidean()); err != nil {
					b.Fatal(err)
				}
			}
		})
	})
}

// BenchmarkRouteServiceParallel measures served queries/sec on the full
// route.Service stack under b.RunParallel. "hot" repeats one commute (pure
// generation-keyed cache hits); "cold" walks distinct pairs (cache misses,
// pooled search all the way down).
func BenchmarkRouteServiceParallel(b *testing.B) {
	g := mpls.MustGenerate(mpls.Config{Seed: benchSeed})
	svc := route.NewService(g)
	a, _ := g.Lookup("A")
	bNode, _ := g.Lookup("B")
	n := g.NumNodes()

	b.Run("hot-cache", func(b *testing.B) {
		b.ReportAllocs()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				if _, err := svc.ComputeCtx(context.Background(), a, bNode, core.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	})
	b.Run("cold-cache", func(b *testing.B) {
		b.ReportAllocs()
		var ctr int64
		b.RunParallel(func(pb *testing.PB) {
			i := ctr // goroutine-local stride; approximate distinctness is enough
			ctr += 1_000_003
			for pb.Next() {
				// Enumerate the full n² pair space so an LRU far smaller than
				// the working set keeps every lookup a miss.
				from := graph.NodeID((i / int64(n)) % int64(n))
				to := graph.NodeID(i % int64(n))
				i++
				if _, err := svc.ComputeCtx(context.Background(), from, to, core.Options{Algorithm: core.Dijkstra}); err != nil {
					b.Fatal(err)
				}
			}
		})
	})
}

// BenchmarkBatchCompute measures the fan-out batch API end to end.
func BenchmarkBatchCompute(b *testing.B) {
	g := mpls.MustGenerate(mpls.Config{Seed: benchSeed})
	svc := route.NewService(g)
	n := g.NumNodes()
	pairs := make([]route.Pair, 64)
	for i := range pairs {
		pairs[i] = route.Pair{From: graph.NodeID((i * 13) % n), To: graph.NodeID((i*29 + 7) % n)}
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, res := range svc.ComputeBatchCtx(context.Background(), pairs, core.Options{Algorithm: core.Dijkstra}) {
			if res.Err != nil {
				b.Fatal(res.Err)
			}
		}
	}
}

// BenchmarkALTPreprocess measures landmark preprocessing, whose 2·k
// single-source sweeps now run on a GOMAXPROCS-bounded worker pool. The
// serial variant pins the pool to one worker for the before/after contrast.
func BenchmarkALTPreprocess(b *testing.B) {
	const k = 40
	g := gridgen.MustGenerate(gridgen.Config{K: k, Model: gridgen.Variance, Seed: benchSeed})
	landmarks, err := alt.SelectLandmarks(g, 8, benchSeed)
	if err != nil {
		b.Fatal(err)
	}
	variants := []int{1}
	if max := runtime.GOMAXPROCS(0); max > 1 {
		variants = append(variants, max)
	}
	for _, procs := range variants {
		b.Run(fmt.Sprintf("procs=%d", procs), func(b *testing.B) {
			prev := runtime.GOMAXPROCS(procs)
			defer runtime.GOMAXPROCS(prev)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := alt.Preprocess(g, landmarks); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
