package repro_test

import (
	"context"
	"strconv"
	"testing"

	"repro/internal/alt"
	"repro/internal/closure"
	"repro/internal/estimator"
	"repro/internal/graph"
	"repro/internal/gridgen"
	"repro/internal/mpls"
	"repro/internal/search"
)

// BenchmarkExtensionALT compares A* driven by the ALT landmark estimator
// against euclidean A* and Dijkstra on the road map.
func BenchmarkExtensionALT(b *testing.B) {
	g := mpls.MustGenerate(mpls.Config{Seed: benchSeed})
	landmarks, err := alt.SelectLandmarks(g, 4, benchSeed)
	if err != nil {
		b.Fatal(err)
	}
	tables, err := alt.Preprocess(g, landmarks)
	if err != nil {
		b.Fatal(err)
	}
	s, _ := g.Lookup("C")
	d, _ := g.Lookup("D")

	runners := []struct {
		name string
		est  *estimator.Estimator
	}{
		{"dijkstra", estimator.Zero()},
		{"euclidean", estimator.Euclidean()},
		{"alt", tables.Estimator()},
	}
	for _, r := range runners {
		r := r
		b.Run(r.name, func(b *testing.B) {
			b.ReportAllocs()
			var iters int
			for i := 0; i < b.N; i++ {
				res, err := search.AStarCtx(context.Background(), g, s, d, r.est)
				if err != nil {
					b.Fatal(err)
				}
				iters = res.Trace.Iterations
			}
			b.ReportMetric(float64(iters), "iterations")
		})
	}
	b.Run("preprocess", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := alt.Preprocess(g, landmarks); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkExtensionKShortest measures Yen's alternates on the road map,
// up to k=16, the largest k /v1/alternates accepts.
func BenchmarkExtensionKShortest(b *testing.B) {
	g := mpls.MustGenerate(mpls.Config{Seed: benchSeed})
	s, _ := g.Lookup("G")
	d, _ := g.Lookup("D")
	for _, k := range []int{1, 3, 5, 16} {
		k := k
		b.Run(byKName(k), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				paths, _, err := search.KShortestCtx(context.Background(), g, s, d, k)
				if err != nil || len(paths) == 0 {
					b.Fatalf("%v / %d paths", err, len(paths))
				}
			}
		})
	}
}

func byKName(k int) string {
	return "k=" + strconv.Itoa(k)
}

// BenchmarkExtensionClosureVsSinglePair quantifies the paper's economics:
// answering one pair with a full transitive closure vs. one A* run.
func BenchmarkExtensionClosureVsSinglePair(b *testing.B) {
	g := gridgen.MustGenerate(gridgen.Config{K: 12, Model: gridgen.Variance, Seed: benchSeed})
	s, d := gridgen.Pair(12, gridgen.Horizontal, benchSeed)
	b.Run("warren-closure", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			closure.Warren(g)
		}
	})
	b.Run("floyd-warshall", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			closure.AllPairs(g)
		}
	})
	b.Run("single-pair-astar", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := search.AStarCtx(context.Background(), g, s, d, estimator.Manhattan()); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkExtensionIsochrone measures the budget-bounded reachability
// query at growing budgets.
func BenchmarkExtensionIsochrone(b *testing.B) {
	g := mpls.MustGenerate(mpls.Config{Seed: benchSeed})
	origin, _ := g.Lookup("E")
	for _, budget := range []float64{2, 8, 32} {
		budget := budget
		b.Run(byBudgetName(budget), func(b *testing.B) {
			b.ReportAllocs()
			var size int
			for i := 0; i < b.N; i++ {
				reach, err := search.WithinCtx(context.Background(), g, origin, budget)
				if err != nil {
					b.Fatal(err)
				}
				size = len(reach)
			}
			b.ReportMetric(float64(size), "nodes")
		})
	}
}

func byBudgetName(budget float64) string {
	switch {
	case budget < 4:
		return "budget=small"
	case budget < 16:
		return "budget=medium"
	default:
		return "budget=large"
	}
}

// BenchmarkGraphReverse exercises the reverse-graph construction that
// bidirectional search and ALT preprocessing lean on.
func BenchmarkGraphReverse(b *testing.B) {
	g := mpls.MustGenerate(mpls.Config{Seed: benchSeed})
	b.ReportAllocs()
	var r *graph.Graph
	for i := 0; i < b.N; i++ {
		r = g.Reverse()
	}
	if r.NumEdges() != g.NumEdges() {
		b.Fatal("reverse lost edges")
	}
}
