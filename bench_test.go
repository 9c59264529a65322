// Package repro's root benchmark harness: one testing.B benchmark per table
// and figure of the paper's evaluation, plus the ablations DESIGN.md calls
// out. `go test -bench=. -benchmem` regenerates the measurements behind
// every exhibit; `cmd/atis-experiments` renders the same data as
// paper-style tables and ASCII figures.
package repro_test

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/costmodel"
	"repro/internal/dbsearch"
	"repro/internal/estimator"
	"repro/internal/graph"
	"repro/internal/gridgen"
	"repro/internal/join"
	"repro/internal/mpls"
	"repro/internal/optimizer"
	"repro/internal/search"
)

const benchSeed = 1993

// memRunner names one in-memory algorithm.
type memRunner struct {
	name string
	run  func(g *graph.Graph, s, d graph.NodeID) (search.Result, error)
}

func memRunners() []memRunner {
	return []memRunner{
		{"dijkstra", func(g *graph.Graph, s, d graph.NodeID) (search.Result, error) {
			return search.Dijkstra(g, s, d)
		}},
		{"astar-v3", func(g *graph.Graph, s, d graph.NodeID) (search.Result, error) {
			return search.AStarCtx(context.Background(), g, s, d, estimator.Manhattan())
		}},
		{"iterative", func(g *graph.Graph, s, d graph.NodeID) (search.Result, error) {
			return search.IterativeCtx(context.Background(), g, s, d)
		}},
	}
}

func benchMem(b *testing.B, g *graph.Graph, s, d graph.NodeID, r memRunner) {
	b.Helper()
	b.ReportAllocs()
	var iters int
	for i := 0; i < b.N; i++ {
		res, err := r.run(g, s, d)
		if err != nil {
			b.Fatal(err)
		}
		iters = res.Trace.Iterations
	}
	b.ReportMetric(float64(iters), "iterations")
}

// BenchmarkTable5GraphSize: Table 5 / Figure 5 — diagonal path, 20% cost
// variance, grid sizes 10/20/30.
func BenchmarkTable5GraphSize(b *testing.B) {
	for _, k := range []int{10, 20, 30} {
		g := gridgen.MustGenerate(gridgen.Config{K: k, Model: gridgen.Variance, Seed: benchSeed})
		s, d := gridgen.Pair(k, gridgen.Diagonal, benchSeed)
		for _, r := range memRunners() {
			b.Run(fmt.Sprintf("k=%d/%s", k, r.name), func(b *testing.B) {
				benchMem(b, g, s, d, r)
			})
		}
	}
}

// BenchmarkTable6PathLength: Table 6 / Figure 6 — 30×30 grid, three path
// lengths.
func BenchmarkTable6PathLength(b *testing.B) {
	const k = 30
	g := gridgen.MustGenerate(gridgen.Config{K: k, Model: gridgen.Variance, Seed: benchSeed})
	for _, kind := range []gridgen.PairKind{gridgen.Horizontal, gridgen.SemiDiagonal, gridgen.Diagonal} {
		s, d := gridgen.Pair(k, kind, benchSeed)
		for _, r := range memRunners() {
			b.Run(fmt.Sprintf("%s/%s", kind, r.name), func(b *testing.B) {
				benchMem(b, g, s, d, r)
			})
		}
	}
}

// BenchmarkTable7CostModels: Table 7 / Figure 7 — 20×20 grid, diagonal,
// three edge-cost models.
func BenchmarkTable7CostModels(b *testing.B) {
	const k = 20
	for _, model := range []gridgen.CostModel{gridgen.Uniform, gridgen.Variance, gridgen.Skewed} {
		g := gridgen.MustGenerate(gridgen.Config{K: k, Model: model, Seed: benchSeed})
		s, d := gridgen.Pair(k, gridgen.Diagonal, benchSeed)
		for _, r := range memRunners() {
			b.Run(fmt.Sprintf("%s/%s", model, r.name), func(b *testing.B) {
				benchMem(b, g, s, d, r)
			})
		}
	}
}

// BenchmarkTable8Minneapolis: Table 8 / Figure 9 — the four road-map routes.
func BenchmarkTable8Minneapolis(b *testing.B) {
	g := mpls.MustGenerate(mpls.Config{Seed: benchSeed})
	for _, pp := range mpls.PaperPaths() {
		s, ok := g.Lookup(pp.From)
		if !ok {
			b.Fatalf("landmark %s missing", pp.From)
		}
		d, _ := g.Lookup(pp.To)
		for _, r := range memRunners() {
			b.Run(fmt.Sprintf("%s/%s", pp.Name, r.name), func(b *testing.B) {
				benchMem(b, g, s, d, r)
			})
		}
	}
}

// BenchmarkTable4BCostModel: Table 4B — evaluating the algebraic cost
// formulas themselves.
func BenchmarkTable4BCostModel(b *testing.B) {
	model := costmodel.New(optimizer.Params{}, costmodel.GridWorkload(30))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = model.DijkstraEstimate(899).Total
		_ = model.AStarV3Estimate(838).Total
		_ = model.IterativeEstimate(59).Total
	}
}

// benchDB runs one DB-resident configuration per b.N iteration and reports
// the cost-model time units of the final run.
func benchDB(b *testing.B, g *graph.Graph, s, d graph.NodeID, cfg dbsearch.Config, iterative bool) {
	b.Helper()
	m, err := dbsearch.OpenMap(g, dbsearch.Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var units float64
	for i := 0; i < b.N; i++ {
		var res dbsearch.Result
		var err error
		if iterative {
			res, err = m.RunIterative(s, d, cfg)
		} else {
			res, err = m.RunBestFirst(s, d, cfg)
		}
		if err != nil {
			b.Fatal(err)
		}
		units = res.TimeUnits
	}
	b.ReportMetric(units, "units")
}

// BenchmarkFigure5DBEngine: Figure 5's execution-time series on the
// relational engine (diagonal, 20% variance).
func BenchmarkFigure5DBEngine(b *testing.B) {
	for _, k := range []int{10, 20} {
		g := gridgen.MustGenerate(gridgen.Config{K: k, Model: gridgen.Variance, Seed: benchSeed})
		s, d := gridgen.Pair(k, gridgen.Diagonal, benchSeed)
		b.Run(fmt.Sprintf("k=%d/dijkstra", k), func(b *testing.B) {
			benchDB(b, g, s, d, dbsearch.DijkstraConfig(), false)
		})
		b.Run(fmt.Sprintf("k=%d/astar-v3", k), func(b *testing.B) {
			benchDB(b, g, s, d, dbsearch.AStarV3Config(), false)
		})
		b.Run(fmt.Sprintf("k=%d/iterative", k), func(b *testing.B) {
			benchDB(b, g, s, d, dbsearch.Config{Name: "iterative"}, true)
		})
	}
}

// BenchmarkFigure10Versions: Figures 10–12's A* version comparison on the
// relational engine (one representative grid; the harness sweeps the rest).
func BenchmarkFigure10Versions(b *testing.B) {
	const k = 20
	g := gridgen.MustGenerate(gridgen.Config{K: k, Model: gridgen.Variance, Seed: benchSeed})
	s, d := gridgen.Pair(k, gridgen.Diagonal, benchSeed)
	for _, cfg := range []dbsearch.Config{
		dbsearch.AStarV1Config(),
		dbsearch.AStarV2Config(),
		dbsearch.AStarV3Config(),
	} {
		cfg := cfg
		b.Run(cfg.Name, func(b *testing.B) {
			benchDB(b, g, s, d, cfg, false)
		})
	}
}

// BenchmarkFigure12PathLengthVersions: Figure 12 — version crossover with
// path length.
func BenchmarkFigure12PathLengthVersions(b *testing.B) {
	const k = 20
	g := gridgen.MustGenerate(gridgen.Config{K: k, Model: gridgen.Variance, Seed: benchSeed})
	for _, kind := range []gridgen.PairKind{gridgen.Horizontal, gridgen.Diagonal} {
		s, d := gridgen.Pair(k, kind, benchSeed)
		for _, cfg := range []dbsearch.Config{dbsearch.AStarV1Config(), dbsearch.AStarV2Config()} {
			cfg := cfg
			b.Run(fmt.Sprintf("%s/%s", kind, cfg.Name), func(b *testing.B) {
				benchDB(b, g, s, d, cfg, false)
			})
		}
	}
}

// BenchmarkAblationFrontier: heap vs. scan vs. duplicate-tolerant frontier
// (Section 4's duplicate-management discussion).
func BenchmarkAblationFrontier(b *testing.B) {
	const k = 30
	g := gridgen.MustGenerate(gridgen.Config{K: k, Model: gridgen.Variance, Seed: benchSeed})
	s, d := gridgen.Pair(k, gridgen.Diagonal, benchSeed)
	for _, kind := range []search.FrontierKind{search.FrontierHeap, search.FrontierScan, search.FrontierDuplicates} {
		kind := kind
		b.Run(kind.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := search.BestFirstCtx(context.Background(), g, s, d, search.Options{
					Estimator:   estimator.Manhattan(),
					Frontier:    kind,
					AllowReopen: true,
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationJoinStrategies: the four join strategies forced on the
// DB engine's adjacency fetch.
func BenchmarkAblationJoinStrategies(b *testing.B) {
	const k = 10
	g := gridgen.MustGenerate(gridgen.Config{K: k, Model: gridgen.Variance, Seed: benchSeed})
	s, d := gridgen.Pair(k, gridgen.Diagonal, benchSeed)
	for _, strat := range join.Strategies() {
		st := strat
		cfg := dbsearch.DijkstraConfig()
		cfg.ForceJoin = &st
		b.Run(st.String(), func(b *testing.B) {
			benchDB(b, g, s, d, cfg, false)
		})
	}
}

// BenchmarkAblationWeightedAStar: the ε sweep of the optimality/speed
// tradeoff.
func BenchmarkAblationWeightedAStar(b *testing.B) {
	const k = 30
	g := gridgen.MustGenerate(gridgen.Config{K: k, Model: gridgen.Variance, Seed: benchSeed})
	s, d := gridgen.Pair(k, gridgen.Diagonal, benchSeed)
	for _, w := range []float64{1, 2, 5} {
		w := w
		b.Run(fmt.Sprintf("w=%g", w), func(b *testing.B) {
			b.ReportAllocs()
			var iters int
			for i := 0; i < b.N; i++ {
				res, err := search.AStarCtx(context.Background(), g, s, d, estimator.Scaled(estimator.Manhattan(), w))
				if err != nil {
					b.Fatal(err)
				}
				iters = res.Trace.Iterations
			}
			b.ReportMetric(float64(iters), "iterations")
		})
	}
}

// BenchmarkAblationBidirectional: the future-work extension vs. plain
// Dijkstra.
func BenchmarkAblationBidirectional(b *testing.B) {
	const k = 30
	g := gridgen.MustGenerate(gridgen.Config{K: k, Model: gridgen.Variance, Seed: benchSeed})
	s, d := gridgen.Pair(k, gridgen.Diagonal, benchSeed)
	b.Run("dijkstra", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := search.Dijkstra(g, s, d); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("bidirectional", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := search.BidirectionalCtx(context.Background(), g, s, d); err != nil {
				b.Fatal(err)
			}
		}
	})
}
