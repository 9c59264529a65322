// Package-level scale tests: larger instances than the paper's, exercising
// the full stack at sizes a modern laptop handles trivially but which shake
// out quadratic accidents. Skipped under -short.
package repro_test

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/ch"
	"repro/internal/dbsearch"
	"repro/internal/estimator"
	"repro/internal/graph"
	"repro/internal/gridgen"
	"repro/internal/search"
)

func TestScaleGrid50(t *testing.T) {
	if testing.Short() {
		t.Skip("scale test")
	}
	const k = 50 // 2500 nodes, 9800 directed edges
	g := gridgen.MustGenerate(gridgen.Config{K: k, Model: gridgen.Variance, Seed: benchSeed})
	s, d := gridgen.Pair(k, gridgen.Diagonal, benchSeed)

	dij, err := search.Dijkstra(g, s, d)
	if err != nil || !dij.Found {
		t.Fatalf("dijkstra: %v", err)
	}
	ast, err := search.AStarCtx(context.Background(), g, s, d, estimator.Manhattan())
	if err != nil {
		t.Fatal(err)
	}
	it, err := search.IterativeCtx(context.Background(), g, s, d)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(dij.Cost-ast.Cost) > 1e-9 || math.Abs(dij.Cost-it.Cost) > 1e-9 {
		t.Fatalf("costs disagree at scale: %v / %v / %v", dij.Cost, ast.Cost, it.Cost)
	}
	if it.Trace.Iterations != 2*(k-1)+1 {
		t.Errorf("iterative rounds = %d, want %d", it.Trace.Iterations, 2*(k-1)+1)
	}
	if dij.Trace.Iterations < k*k-10 {
		t.Errorf("dijkstra explored %d of %d", dij.Trace.Iterations, k*k)
	}

	// Alternates and landmarks still behave at this size.
	paths, _, err := search.KShortestCtx(context.Background(), g, s, gridgen.NodeAt(k, 5, 5), 3)
	if err != nil || len(paths) != 3 {
		t.Fatalf("k-shortest at scale: %v, %d paths", err, len(paths))
	}
}

// TestScaleCH100 is the contraction-hierarchy scale gate: a 100×100 grid
// (10,000 nodes), preprocessing included. It checks the three properties
// the hierarchy is for — exact agreement with Dijkstra, an order-of-
// magnitude reduction in settled nodes on long queries, and query wall
// time that beats Dijkstra's — plus timing sanity on the preprocessing
// pass itself.
func TestScaleCH100(t *testing.T) {
	if testing.Short() {
		t.Skip("scale test (CH preprocessing is seconds of work)")
	}
	const k = 100 // 10,000 nodes, 39,600 directed edges
	g := gridgen.MustGenerate(gridgen.Config{K: k, Model: gridgen.Variance, Seed: benchSeed})

	buildStart := time.Now()
	ix, err := ch.Build(g, ch.Options{})
	if err != nil {
		t.Fatal(err)
	}
	buildTime := time.Since(buildStart)
	if buildTime > 5*time.Minute {
		t.Errorf("preprocessing took %v; quadratic accident?", buildTime)
	}
	t.Logf("preprocessing: %v for %d nodes, %d shortcuts", buildTime, g.NumNodes(), ix.Shortcuts())

	// Long diagonal query plus random pairs: agreement and work ratio.
	rng := rand.New(rand.NewSource(benchSeed))
	s, d := gridgen.Pair(k, gridgen.Diagonal, benchSeed)
	var chTime, dijTime time.Duration
	var chSettled, dijSettled int
	for i := 0; i < 20; i++ {
		q0 := time.Now()
		res, err := ix.QueryCtx(context.Background(), s, d)
		chTime += time.Since(q0)
		if err != nil {
			t.Fatal(err)
		}
		q1 := time.Now()
		dij, err := search.Dijkstra(g, s, d)
		dijTime += time.Since(q1)
		if err != nil {
			t.Fatal(err)
		}
		if res.Found != dij.Found {
			t.Fatalf("%d→%d: ch found=%v, dijkstra found=%v", s, d, res.Found, dij.Found)
		}
		if math.Abs(res.Cost-dij.Cost) > 1e-9*(1+dij.Cost) {
			t.Fatalf("%d→%d: ch cost %v, dijkstra %v", s, d, res.Cost, dij.Cost)
		}
		if i == 0 {
			chSettled, dijSettled = res.Settled, dij.Trace.Iterations
		}
		s = graph.NodeID(rng.Intn(g.NumNodes()))
		d = graph.NodeID(rng.Intn(g.NumNodes()))
	}
	// The acceptance bar: ≥10× fewer settled nodes on the corner-to-corner
	// query, where Dijkstra must flood essentially the whole grid.
	if dijSettled < 10*chSettled {
		t.Errorf("diagonal query: ch settled %d, dijkstra %d — want ≥10x reduction", chSettled, dijSettled)
	}
	t.Logf("diagonal settled: ch %d vs dijkstra %d (%.1fx)", chSettled, dijSettled, float64(dijSettled)/float64(chSettled))
	t.Logf("20-query wall time: ch %v vs dijkstra %v", chTime, dijTime)
	// Timing sanity, not a benchmark: allow generous noise on a shared
	// vCPU, but CH taking longer than half of Dijkstra's total would mean
	// the hierarchy isn't actually pruning.
	if chTime > dijTime/2 {
		t.Errorf("ch total %v not clearly faster than dijkstra %v", chTime, dijTime)
	}
}

func TestScaleDBEngine30(t *testing.T) {
	if testing.Short() {
		t.Skip("scale test")
	}
	const k = 30
	g := gridgen.MustGenerate(gridgen.Config{K: k, Model: gridgen.Variance, Seed: benchSeed})
	m, err := dbsearch.OpenMap(g, dbsearch.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s, d := gridgen.Pair(k, gridgen.Diagonal, benchSeed)
	res, err := m.RunBestFirst(s, d, dbsearch.DijkstraConfig())
	if err != nil || !res.Found {
		t.Fatalf("db dijkstra at 30x30: %v", err)
	}
	if res.Iterations != 899 {
		t.Errorf("iterations = %d, want 899 (Table 5)", res.Iterations)
	}
	oracle, _ := search.Dijkstra(g, s, d)
	if math.Abs(res.Cost-oracle.Cost) > 1e-9 {
		t.Errorf("db cost %v != oracle %v", res.Cost, oracle.Cost)
	}
}
