package search

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"testing"

	"repro/internal/graph"
	"repro/internal/gridgen"
)

func TestKShortestSimple(t *testing.T) {
	// Two disjoint routes 0→3: via 1 (cost 2) and via 2 (cost 3), plus the
	// direct edge (cost 4).
	b := graph.NewBuilder(4, 5)
	for i := 0; i < 4; i++ {
		b.AddNode(float64(i), 0)
	}
	b.AddEdge(0, 1, 1)
	b.AddEdge(1, 3, 1)
	b.AddEdge(0, 2, 1.5)
	b.AddEdge(2, 3, 1.5)
	b.AddEdge(0, 3, 4)
	g := b.MustBuild()

	paths, _, err := KShortestCtx(context.Background(), g, 0, 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 3 {
		t.Fatalf("got %d paths, want 3", len(paths))
	}
	wantCosts := []float64{2, 3, 4}
	for i, p := range paths {
		if math.Abs(p.Cost-wantCosts[i]) > 1e-12 {
			t.Errorf("path %d cost %v, want %v", i, p.Cost, wantCosts[i])
		}
		if !p.Path.ValidIn(g) {
			t.Errorf("path %d invalid: %v", i, p.Path.Nodes)
		}
	}
}

func TestKShortestFirstIsOptimal(t *testing.T) {
	g := gridgen.MustGenerate(gridgen.Config{K: 10, Model: gridgen.Variance, Seed: 4})
	s, d := gridgen.Pair(10, gridgen.SemiDiagonal, 0)
	opt, _ := Dijkstra(g, s, d)
	paths, _, err := KShortestCtx(context.Background(), g, s, d, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 4 {
		t.Fatalf("got %d paths", len(paths))
	}
	if math.Abs(paths[0].Cost-opt.Cost) > 1e-12 {
		t.Errorf("first path cost %v != optimal %v", paths[0].Cost, opt.Cost)
	}
}

func TestKShortestOrderedDistinctLoopless(t *testing.T) {
	g := gridgen.MustGenerate(gridgen.Config{K: 8, Model: gridgen.Variance, Seed: 9})
	s, d := gridgen.Pair(8, gridgen.Diagonal, 0)
	paths, _, err := KShortestCtx(context.Background(), g, s, d, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 8 {
		t.Fatalf("got %d paths", len(paths))
	}
	seen := map[string]bool{}
	for i, p := range paths {
		if i > 0 && p.Cost < paths[i-1].Cost-1e-12 {
			t.Errorf("path %d cost %v below previous %v", i, p.Cost, paths[i-1].Cost)
		}
		key := pathKey(p.Path)
		if seen[key] {
			t.Errorf("duplicate path %v", p.Path.Nodes)
		}
		seen[key] = true
		// Loopless: no repeated nodes.
		nodes := map[graph.NodeID]bool{}
		for _, u := range p.Path.Nodes {
			if nodes[u] {
				t.Errorf("path %d revisits node %d", i, u)
			}
			nodes[u] = true
		}
		if c, err := p.Path.CostIn(g); err != nil || math.Abs(c-p.Cost) > 1e-9 {
			t.Errorf("path %d reported cost %v but costs %v (%v)", i, p.Cost, c, err)
		}
	}
}

func TestKShortestNoPath(t *testing.T) {
	b := graph.NewBuilder(2, 0)
	b.AddNode(0, 0)
	b.AddNode(1, 0)
	g := b.MustBuild()
	paths, _, err := KShortestCtx(context.Background(), g, 0, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 0 {
		t.Errorf("got %d paths across a disconnection", len(paths))
	}
}

func TestKShortestExhaustsAlternatives(t *testing.T) {
	// A path graph has exactly one loopless route.
	b := graph.NewBuilder(3, 2)
	for i := 0; i < 3; i++ {
		b.AddNode(float64(i), 0)
	}
	b.AddEdge(0, 1, 1)
	b.AddEdge(1, 2, 1)
	g := b.MustBuild()
	paths, _, err := KShortestCtx(context.Background(), g, 0, 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 1 {
		t.Errorf("got %d paths on a line, want 1", len(paths))
	}
}

func TestKShortestValidation(t *testing.T) {
	g := gridgen.MustGenerate(gridgen.Config{K: 3})
	if _, _, err := KShortestCtx(context.Background(), g, 0, 8, 0); err == nil {
		t.Error("k=0 accepted")
	}
	if _, _, err := KShortestCtx(context.Background(), g, -1, 2, 1); err == nil {
		t.Error("bad source accepted")
	}
	// k=1 equals Dijkstra.
	paths, _, err := KShortestCtx(context.Background(), g, 0, 8, 1)
	if err != nil || len(paths) != 1 {
		t.Fatalf("k=1: %v %d", err, len(paths))
	}
	dij, _ := Dijkstra(g, 0, 8)
	if paths[0].Cost != dij.Cost {
		t.Errorf("k=1 cost %v != dijkstra %v", paths[0].Cost, dij.Cost)
	}
}

// Oracle property: on small random graphs, KShortestCtx(k) must return the
// k cheapest of all loopless paths found by brute-force enumeration. The
// graphs cover the inputs that break a careless Yen: real-valued costs,
// tied integer costs, zero-cost edges, and parallel edges. A path is a node
// sequence, so the brute force counts each sequence once, priced at its
// cheapest arc choice per step; k runs up to 16, the largest the server
// accepts.
func TestKShortestAgainstBruteForce(t *testing.T) {
	kinds := []struct {
		name     string
		parallel int // extra arcs a chosen pair may carry
		cost     func(*rand.Rand) float64
	}{
		{"real", 0, func(r *rand.Rand) float64 { return 0.1 + r.Float64() }},
		{"ties", 0, func(r *rand.Rand) float64 { return float64(1 + r.Intn(3)) }},
		{"zero", 0, func(r *rand.Rand) float64 { return float64(r.Intn(3)) }},
		{"parallel", 2, func(r *rand.Rand) float64 { return float64(r.Intn(4)) }},
	}
	rng := rand.New(rand.NewSource(17))
	for _, kind := range kinds {
		for trial := 0; trial < 25; trial++ {
			n := 4 + rng.Intn(5)
			b := graph.NewBuilder(n, 3*n*n)
			for i := 0; i < n; i++ {
				b.AddNode(rng.Float64(), rng.Float64())
			}
			for u := 0; u < n; u++ {
				for v := 0; v < n; v++ {
					if u == v || rng.Float64() >= 0.5 {
						continue
					}
					for arcs := 1 + rng.Intn(kind.parallel+1); arcs > 0; arcs-- {
						b.AddEdge(graph.NodeID(u), graph.NodeID(v), kind.cost(rng))
					}
				}
			}
			g := b.MustBuild()
			s, d := graph.NodeID(0), graph.NodeID(n-1)
			all := bruteForcePaths(g, s, d)
			k := 1 + rng.Intn(16)
			paths, _, err := KShortestCtx(context.Background(), g, s, d, k)
			if err != nil {
				t.Fatal(err)
			}
			wantLen := min(k, len(all))
			if len(paths) != wantLen {
				t.Fatalf("%s trial %d: got %d paths, brute force says %d (of %d total)", kind.name, trial, len(paths), wantLen, len(all))
			}
			seen := map[string]bool{}
			for i, p := range paths {
				if math.Abs(p.Cost-all[i]) > 1e-9 {
					t.Fatalf("%s trial %d k=%d: path %d cost %v, brute force %v", kind.name, trial, k, i, p.Cost, all[i])
				}
				if c, err := p.Path.CostIn(g); err != nil || math.Abs(c-p.Cost) > 1e-9 {
					t.Fatalf("%s trial %d: path %d reported cost %v but costs %v (%v)", kind.name, trial, i, p.Cost, c, err)
				}
				if key := pathKey(p.Path); seen[key] {
					t.Fatalf("%s trial %d: duplicate path %v", kind.name, trial, p.Path.Nodes)
				} else {
					seen[key] = true
				}
			}
		}
	}
}

// bruteForcePaths enumerates every loopless node sequence from s to d by
// depth-first search and returns their costs in increasing order, each
// sequence priced at its cheapest arc per step.
func bruteForcePaths(g *graph.Graph, s, d graph.NodeID) []float64 {
	var all []float64
	visited := map[graph.NodeID]bool{s: true}
	var dfs func(u graph.NodeID, cost float64)
	dfs = func(u graph.NodeID, cost float64) {
		if u == d {
			all = append(all, cost)
			return
		}
		for v := graph.NodeID(0); int(v) < g.NumNodes(); v++ {
			c, ok := g.ArcCost(u, v)
			if !ok || visited[v] {
				continue
			}
			visited[v] = true
			dfs(v, cost+c)
			delete(visited, v)
		}
	}
	dfs(s, 0)
	sort.Float64s(all)
	return all
}

// yenTrap builds a graph on which Yen's algorithm makes many cheap spur
// searches: a chain c0→…→cL of unit arcs from s = c0 to d = cL, and a
// zero-cost side chain b0→…→b(B-1) that every chain node enters at b0 and
// that leaves only to c1. Once c1 is on a spur's root, the side chain is
// a dead end that A* still explores, since its exact potential runs
// through c1. So every spur search pops at most B+1 nodes, but the request
// pops about L·B.
func yenTrap(t testing.TB, l, bl int) (g *graph.Graph, s, d graph.NodeID) {
	t.Helper()
	b := graph.NewBuilder(l+1+bl, 2*l+2*bl)
	for i := 0; i < l+1+bl; i++ {
		b.AddNode(float64(i), 0)
	}
	side := graph.NodeID(l + 1)
	for i := 0; i < l; i++ {
		b.AddEdge(graph.NodeID(i), graph.NodeID(i+1), 1)
		b.AddEdge(graph.NodeID(i), side, 1)
	}
	for i := 0; i < bl; i++ {
		u := side + graph.NodeID(i)
		if i+1 < bl {
			b.AddEdge(u, u+1, 0)
		}
		b.AddEdge(u, 1, 1)
	}
	built, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return built, 0, graph.NodeID(l)
}

// TestKShortestBudgetBoundsRequest: one expansion budget bounds the whole
// request. A search settles each node at most once, so no single search of
// the request — the first path's, the backward pass or any spur — needs
// more than n pops. Under a budget of 2n+1, more than the first path and
// the backward pass need together, the request must still stop with
// ErrBudget, in a spur search and exactly at the budget, since all its
// searches together need far more.
func TestKShortestBudgetBoundsRequest(t *testing.T) {
	g, s, d := yenTrap(t, 50, 100)
	budget := 2*g.NumNodes() + 1
	_, tr, err := KShortestCtx(context.Background(), g, s, d, 3)
	if err != nil {
		t.Fatal(err)
	}
	if tr.HeapPops <= uint64(budget) {
		t.Fatalf("unbudgeted request popped %d times; the fixture needs more than %d", tr.HeapPops, budget)
	}
	_, tr, err = KShortestCtx(WithBudget(context.Background(), budget), g, s, d, 3)
	if !errors.Is(err, ErrBudget) {
		t.Fatalf("err = %v, want ErrBudget", err)
	}
	if tr.HeapPops != uint64(budget) {
		t.Errorf("request stopped after %d pops under budget %d", tr.HeapPops, budget)
	}
}

// yenGrid is the bound tests' request: k=16 alternates corner to corner
// on the k=48 variance grid (seed 7).
func yenGrid(t *testing.T) ([]Result, Trace) {
	t.Helper()
	g := gridgen.MustGenerate(gridgen.Config{K: 48, Model: gridgen.Variance, Seed: 7})
	s, d := gridgen.Pair(48, gridgen.Diagonal, 7)
	paths, tr, err := KShortestCtx(context.Background(), g, s, d, 16)
	if err != nil || len(paths) != 16 {
		t.Fatalf("%d paths, err %v", len(paths), err)
	}
	return paths, tr
}

// TestKShortestPopBound pins the work of a k=16 request: heap pops over
// the whole request, backward pass included, stay within 5 % of the
// 2,235,145 that one restricted Dijkstra per spur needed.
func TestKShortestPopBound(t *testing.T) {
	const bound = 111_757
	if _, tr := yenGrid(t); tr.HeapPops > bound {
		t.Fatalf("request popped %d times, want at most %d", tr.HeapPops, bound)
	}
}

// TestKShortestAllocBound: the same request allocates at most 8 MB once
// the workspace pool and the graph's reverse view are warm (one
// restricted Dijkstra per spur allocated 80.7 MB).
func TestKShortestAllocBound(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector defeats sync.Pool caching, so allocation is not meaningful under -race")
	}
	const bound = 8 << 20
	yenGrid(t)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	yenGrid(t)
	runtime.ReadMemStats(&after)
	if b := after.TotalAlloc - before.TotalAlloc; b > bound {
		t.Fatalf("request allocated %d bytes, want at most %d", b, bound)
	}
}
