package closure

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/gridgen"
	"repro/internal/search"
)

// randomDigraph builds a random directed graph with n nodes and ~density·n²
// edges.
func randomDigraph(rng *rand.Rand, n int, density float64) *graph.Graph {
	b := graph.NewBuilder(n, int(density*float64(n*n))+1)
	for i := 0; i < n; i++ {
		b.AddNode(rng.Float64(), rng.Float64())
	}
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			if u != v && rng.Float64() < density {
				b.AddEdge(graph.NodeID(u), graph.NodeID(v), 0.5+rng.Float64())
			}
		}
	}
	return b.MustBuild()
}

func TestBitMatrixBasics(t *testing.T) {
	m := NewBitMatrix(70) // spans two words per row
	if m.N() != 70 || m.Cols() != 70 {
		t.Fatalf("dims %d×%d", m.N(), m.Cols())
	}
	m.Set(3, 65)
	if !m.Get(3, 65) || m.Get(3, 64) || m.Get(2, 65) {
		t.Error("Set/Get broken across word boundary")
	}
	if m.Count() != 1 {
		t.Errorf("Count = %d", m.Count())
	}
	c := m.Clone()
	if !c.Equal(m) {
		t.Error("clone not equal")
	}
	c.Set(0, 0)
	if c.Equal(m) {
		t.Error("Equal ignores differences")
	}
	if m.Equal(NewBitMatrix(3)) {
		t.Error("Equal ignores dimensions")
	}
	// OrRow.
	m.Set(5, 1)
	if !m.OrRow(3, 5) {
		t.Error("OrRow reported no change")
	}
	if !m.Get(3, 1) {
		t.Error("OrRow did not or")
	}
	if m.OrRow(3, 5) {
		t.Error("idempotent OrRow reported change")
	}
}

// All four closure algorithms must produce identical matrices on random
// digraphs, and each row must equal DFS reachability from that node.
func TestClosureAlgorithmsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		g := randomDigraph(rng, 3+rng.Intn(40), 0.08)
		it, itStats := Iterative(g)
		lg, lgStats := Logarithmic(g)
		wa, _ := Warren(g)
		df, _ := DFS(g)
		if !it.Equal(lg) {
			t.Fatalf("trial %d: iterative != logarithmic", trial)
		}
		if !it.Equal(wa) {
			t.Fatalf("trial %d: iterative != warren", trial)
		}
		if !it.Equal(df) {
			t.Fatalf("trial %d: iterative != dfs", trial)
		}
		if itStats.Passes < 1 || lgStats.Passes < 1 {
			t.Fatalf("trial %d: zero passes", trial)
		}
	}
}

// The closure must agree with single-source reachability from the search
// package: closure(i,j) ⟺ dist(i→j) finite.
func TestClosureMatchesSingleSource(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	g := randomDigraph(rng, 30, 0.06)
	m, _ := Warren(g)
	for s := 0; s < g.NumNodes(); s++ {
		dist, _ := search.SingleSource(g, graph.NodeID(s))
		for j := range dist {
			want := !math.IsInf(dist[j], 1)
			if m.Get(s, j) != want {
				t.Fatalf("closure(%d,%d)=%v but dist=%v", s, j, m.Get(s, j), dist[j])
			}
		}
	}
}

func TestClosureOnGridIsComplete(t *testing.T) {
	g := gridgen.MustGenerate(gridgen.Config{K: 5})
	m, _ := DFS(g)
	if m.Count() != 25*25 {
		t.Errorf("grid closure has %d entries, want all %d", m.Count(), 25*25)
	}
}

func TestPartialClosure(t *testing.T) {
	// 0→1→2, 3 isolated.
	b := graph.NewBuilder(4, 2)
	for i := 0; i < 4; i++ {
		b.AddNode(float64(i), 0)
	}
	b.AddEdge(0, 1, 1)
	b.AddEdge(1, 2, 1)
	g := b.MustBuild()

	m, err := PartialClosure(g, []graph.NodeID{1, 3})
	if err != nil {
		t.Fatal(err)
	}
	if m.N() != 2 || m.Cols() != 4 {
		t.Fatalf("dims %d×%d", m.N(), m.Cols())
	}
	// Row 0 = from node 1: reaches 1, 2.
	wantRow0 := []bool{false, true, true, false}
	for j, want := range wantRow0 {
		if m.Get(0, j) != want {
			t.Errorf("row 0 col %d = %v", j, m.Get(0, j))
		}
	}
	// Row 1 = from node 3: reaches only itself.
	if !m.Get(1, 3) || m.Get(1, 0) || m.Get(1, 2) {
		t.Error("row 1 wrong")
	}
	if _, err := PartialClosure(g, []graph.NodeID{9}); err == nil {
		t.Error("out-of-range source accepted")
	}
}

// Floyd–Warshall must agree with Dijkstra on every row.
func TestAllPairsMatchesDijkstra(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 10; trial++ {
		g := randomDigraph(rng, 3+rng.Intn(25), 0.15)
		dist := AllPairs(g)
		for s := 0; s < g.NumNodes(); s++ {
			oracle, _ := search.SingleSource(g, graph.NodeID(s))
			for j := range oracle {
				a, b := dist[s][j], oracle[j]
				if math.IsInf(a, 1) != math.IsInf(b, 1) {
					t.Fatalf("trial %d: (%d,%d) reachability %v vs %v", trial, s, j, a, b)
				}
				if !math.IsInf(a, 1) && math.Abs(a-b) > 1e-9 {
					t.Fatalf("trial %d: (%d,%d) %v vs %v", trial, s, j, a, b)
				}
			}
		}
	}
}

// The paper's economics: for one pair, AllPairs does ~n× the work of a
// single Dijkstra. Confirm the row counts at least reflect reality — the
// all-pairs matrix answers n² questions; a single-pair run answers one.
func TestSinglePairEconomics(t *testing.T) {
	g := gridgen.MustGenerate(gridgen.Config{K: 10, Model: gridgen.Variance, Seed: 2})
	s, d := gridgen.Pair(10, gridgen.Horizontal, 0)
	single, err := search.AStarCtx(context.Background(), g, s, d, nil)
	if err != nil {
		t.Fatal(err)
	}
	// nil estimator behaves as zero → Dijkstra; sanity only.
	if !single.Found {
		t.Fatal("no path")
	}
	dist := AllPairs(g)
	if math.Abs(dist[s][d]-single.Cost) > 1e-9 {
		t.Errorf("all-pairs %v != single-pair %v", dist[s][d], single.Cost)
	}
}

func BenchmarkClosureFamily(b *testing.B) {
	g := gridgen.MustGenerate(gridgen.Config{K: 8})
	algos := map[string]func(*graph.Graph) (*BitMatrix, Stats){
		"iterative":   Iterative,
		"logarithmic": Logarithmic,
		"warren":      Warren,
		"dfs":         DFS,
	}
	for name, fn := range algos {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				fn(g)
			}
		})
	}
}
