package ch

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/graph"
	"repro/internal/gridgen"
	"repro/internal/pqueue"
)

// TestCustomizedMatchesRebuildAndDijkstra is the differential guarantee of
// the topology/metric split: after every batch of a random mutation
// stream, an index re-customized over the original topology must return
// exactly the same distances as an index rebuilt from scratch and as
// textbook Dijkstra, on every sampled pair. Runs under -race in CI.
func TestCustomizedMatchesRebuildAndDijkstra(t *testing.T) {
	g, err := gridgen.Generate(gridgen.Config{K: 9, Model: gridgen.Variance, Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	topo, err := BuildTopology(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(31))
	n := g.NumNodes()
	edges := g.Edges() // base costs; mutations below set absolutes from these
	rounds, pairs := 8, 25
	if testing.Short() {
		rounds, pairs = 3, 8
	}
	for round := 0; round < rounds; round++ {
		// One random batch: a handful of edges jump to random multiples of
		// their base cost, applied with a single version bump.
		batch := make([]graph.EdgeCostChange, 0, 12)
		for i := 0; i < 12; i++ {
			e := edges[rng.Intn(len(edges))]
			batch = append(batch, graph.EdgeCostChange{
				Tail: e.Tail, Head: e.Head, Cost: e.Cost * (0.5 + 3*rng.Float64()),
			})
		}
		if _, err := g.ApplyBatch(batch); err != nil {
			t.Fatal(err)
		}

		customized, err := topo.NewIndex(g)
		if err != nil {
			t.Fatal(err)
		}
		rebuilt, err := Build(g, Options{})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < pairs; i++ {
			s := graph.NodeID(rng.Intn(n))
			d := graph.NodeID(rng.Intn(n))
			cres, err := customized.QueryCtx(context.Background(), s, d)
			if err != nil {
				t.Fatal(err)
			}
			rres, err := rebuilt.QueryCtx(context.Background(), s, d)
			if err != nil {
				t.Fatal(err)
			}
			want, found := oracleDijkstra(g, s, d)
			if cres.Found != found || rres.Found != found {
				t.Fatalf("round %d %d→%d: customized found=%v rebuilt=%v dijkstra=%v",
					round, s, d, cres.Found, rres.Found, found)
			}
			if !found {
				continue
			}
			if math.Abs(cres.Cost-want) > tol*(1+math.Abs(want)) {
				t.Fatalf("round %d %d→%d: customized %v, dijkstra %v", round, s, d, cres.Cost, want)
			}
			if math.Abs(cres.Cost-rres.Cost) > tol*(1+math.Abs(want)) {
				t.Fatalf("round %d %d→%d: customized %v, rebuilt %v", round, s, d, cres.Cost, rres.Cost)
			}
			checkUnpacked(t, g, s, d, cres)
		}
	}
}

// TestRecustomizationSwitchesUnpackPath pins down that middle nodes are
// metric state, not topology state: congestion on one diamond side must
// flip both the reported cost and the unpacked path to the other side,
// with no structural rebuild.
func TestRecustomizationSwitchesUnpackPath(t *testing.T) {
	// 0→1→3 (cost 2), 0→2→3 (cost 10), plus pressure edges 4→0 and 3→5 so
	// the interior contracts before the terminals and a 0→3 shortcut with
	// triangles over both sides exists.
	b := builderWithNodes(6)
	b.AddEdge(4, 0, 1)
	b.AddEdge(0, 1, 1)
	b.AddEdge(1, 3, 1)
	b.AddEdge(0, 2, 5)
	b.AddEdge(2, 3, 5)
	b.AddEdge(3, 5, 1)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	topo, err := BuildTopology(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ix, err := topo.NewIndex(g)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ix.QueryCtx(context.Background(), 4, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found || math.Abs(res.Cost-4) > tol {
		t.Fatalf("pre-congestion 4→5: found=%v cost=%v, want 4 via node 1", res.Found, res.Cost)
	}
	checkUnpacked(t, g, 4, 5, res)

	// Congest the 0→1→3 side past the alternative.
	if _, err := g.ApplyBatch([]graph.EdgeCostChange{
		{Tail: 0, Head: 1, Cost: 50},
		{Tail: 1, Head: 3, Cost: 50},
	}); err != nil {
		t.Fatal(err)
	}
	ix2, err := topo.NewIndex(g)
	if err != nil {
		t.Fatal(err)
	}
	res2, err := ix2.QueryCtx(context.Background(), 4, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !res2.Found || math.Abs(res2.Cost-12) > tol {
		t.Fatalf("post-congestion 4→5: found=%v cost=%v, want 12 via node 2", res2.Found, res2.Cost)
	}
	checkUnpacked(t, g, 4, 5, res2)
	via2 := false
	for _, u := range res2.Path.Nodes {
		if u == 2 {
			via2 = true
		}
	}
	if !via2 {
		t.Fatalf("post-congestion path %v does not reroute via node 2", res2.Path.Nodes)
	}
	// The old index still answers for its own version (immutability).
	resOld, err := ix.QueryCtx(context.Background(), 4, 5)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(resOld.Cost-4) > tol {
		t.Fatalf("pre-mutation index changed its answer to %v", resOld.Cost)
	}
}

// TestCustomizeRejectsStructuralMismatch: a topology only answers for the
// structure it was contracted from.
func TestCustomizeRejectsStructuralMismatch(t *testing.T) {
	g, err := gridgen.Generate(gridgen.Config{K: 4, Model: gridgen.Uniform, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	topo, err := BuildTopology(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	other, err := gridgen.Generate(gridgen.Config{K: 5, Model: gridgen.Uniform, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := topo.Customize(other); err == nil {
		t.Fatal("customizing against a structurally different graph did not error")
	}
}

// TestNewIndexRefusesForeignStructure: a topology answers only for the
// graph it was built from and that graph's clones. A graph with the same
// node and edge counts but other arcs would have its costs seeded into
// the wrong skeleton slots, and even a separate build of the same arcs is
// refused, because Matches compares structure identity, not shape.
func TestNewIndexRefusesForeignStructure(t *testing.T) {
	build := func(arcs [][2]graph.NodeID) *graph.Graph {
		b := graph.NewBuilder(4, len(arcs))
		for i := 0; i < 4; i++ {
			b.AddNode(float64(i), 0)
		}
		for _, a := range arcs {
			b.AddEdge(a[0], a[1], 1)
		}
		return b.MustBuild()
	}
	path := [][2]graph.NodeID{{0, 1}, {1, 2}, {2, 3}}
	g := build(path)
	topo, err := BuildTopology(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := topo.NewIndex(g.Clone()); err != nil {
		t.Fatalf("a clone of the topology's graph was refused: %v", err)
	}
	for name, h := range map[string]*graph.Graph{
		"other arcs":     build([][2]graph.NodeID{{0, 2}, {2, 1}, {1, 3}}),
		"separate build": build(path),
	} {
		if _, err := topo.NewIndex(h); err == nil {
			t.Errorf("%s: NewIndex accepted a graph of another structure with equal counts", name)
		}
	}
}

// TestConcurrentQueriesDuringCustomization exercises the sharing contract
// under -race: many goroutines query a live index while others customize
// fresh metrics from the same topology. The topology is read-only for
// both; each customization owns its output.
func TestConcurrentQueriesDuringCustomization(t *testing.T) {
	g, err := gridgen.Generate(gridgen.Config{K: 8, Model: gridgen.Variance, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	topo, err := BuildTopology(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ix, err := topo.NewIndex(g)
	if err != nil {
		t.Fatal(err)
	}
	n := g.NumNodes()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 30; i++ {
				s := graph.NodeID(rng.Intn(n))
				d := graph.NodeID(rng.Intn(n))
				if _, err := ix.QueryCtx(context.Background(), s, d); err != nil {
					t.Errorf("query(%d,%d): %v", s, d, err)
					return
				}
			}
		}(int64(w + 1))
	}
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Customize against a private clone so cost reads cannot race
			// the mutations other tests might make — the same snapshot
			// discipline the route service uses.
			snap := g.Clone()
			for i := 0; i < 10; i++ {
				if _, err := topo.Customize(snap); err != nil {
					t.Errorf("customize: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// lowerRankDistances returns, for every node y, the cost of the shortest
// path from x to y (or from y to x when reverse is set) whose interior
// nodes all rank below x, by a Dijkstra over adj that never expands a
// node other than x ranked at or above it. Self loops are harmless: they
// never shorten a path.
func lowerRankDistances(adj [][]graph.Edge, rank []int32, x graph.NodeID) []float64 {
	dist := make([]float64, len(adj))
	for i := range dist {
		dist[i] = math.Inf(1)
	}
	dist[x] = 0
	h := pqueue.NewIndexed(len(adj))
	h.Push(int(x), 0)
	for h.Len() > 0 {
		ui, du, _ := h.PopMin()
		u := graph.NodeID(ui)
		if u != x && rank[u] >= rank[x] {
			continue // an endpoint, not an interior node
		}
		for _, e := range adj[u] {
			if nd := du + e.Cost; nd < dist[e.Head] {
				dist[e.Head] = nd
				h.PushOrUpdate(int(e.Head), nd)
			}
		}
	}
	return dist
}

// randomDirectedGraph builds an n-node graph with integer costs in
// [0, 9]: two-way streets, one-way streets, parallel edges and self
// loops, so every structural corner of the skeleton is exercised.
func randomDirectedGraph(rng *rand.Rand, n int) *graph.Graph {
	b := builderWithNodes(n)
	cost := func() float64 { return float64(rng.Intn(10)) }
	for i := 0; i < 3*n; i++ {
		u, w := graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n))
		switch r := rng.Intn(10); {
		case r < 4:
			b.AddUndirectedEdge(u, w, cost())
		case r < 8:
			b.AddEdge(u, w, cost())
		case r < 9:
			b.AddEdge(u, w, cost())
			b.AddEdge(u, w, cost()) // parallel
		default:
			b.AddEdge(u, u, cost()) // self loop
		}
	}
	return b.MustBuild()
}

// TestCustomizeMatchesLowerRankOracle pins what basic customization
// computes, independently of how the triangles are laid out: for every
// skeleton arc {x, y} with rank x < rank y, the up weight is the shortest
// x→y path whose interior nodes all rank below x, and the down weight the
// shortest y→x path under the same rule, each +Inf when no such path
// exists. It also pins the tie-break that makes unpacked paths
// deterministic: an original edge that realises the weight leaves the arc
// without a middle; otherwise the middle ranks below x, the two arcs
// through it sum to the weight exactly, and no lower-ranked middle in the
// arc's triangle list realises it too. Costs are integers, so every
// comparison is exact and ties are common.
func TestCustomizeMatchesLowerRankOracle(t *testing.T) {
	grid := gridgen.MustGenerate(gridgen.Config{K: 8, Model: gridgen.Variance, Seed: 3})
	rng := rand.New(rand.NewSource(3))
	var integral []graph.EdgeCostChange
	for _, e := range grid.Edges() {
		integral = append(integral, graph.EdgeCostChange{Tail: e.Tail, Head: e.Head, Cost: float64(1 + rng.Intn(9))})
	}
	if _, err := grid.ApplyBatch(integral); err != nil {
		t.Fatal(err)
	}
	names, graphs := []string{"directed-small", "grid-k8"}, []*graph.Graph{goldenDirected(), grid}
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		names = append(names, fmt.Sprintf("random-seed%d", seed))
		graphs = append(graphs, randomDirectedGraph(rng, 12+rng.Intn(40)))
	}
	for i, g := range graphs {
		t.Run(names[i], func(t *testing.T) {
			ix, err := Build(g, Options{})
			if err != nil {
				t.Fatal(err)
			}
			topo, m := ix.topo, ix.metric
			out := make([][]graph.Edge, g.NumNodes())
			in := make([][]graph.Edge, g.NumNodes())
			for _, e := range g.Edges() {
				out[e.Tail] = append(out[e.Tail], e)
				in[e.Head] = append(in[e.Head], graph.Edge{Tail: e.Head, Head: e.Tail, Cost: e.Cost})
			}
			// weight returns the customized weight of the arc a→b.
			weight := func(a, b graph.NodeID) float64 {
				if topo.rank[a] < topo.rank[b] {
					return m.up.costs[topo.findArc(a, b)]
				}
				return m.down.costs[topo.findArc(b, a)]
			}
			for x := graph.NodeID(0); int(x) < topo.n; x++ {
				from := lowerRankDistances(out, topo.rank, x)
				to := lowerRankDistances(in, topo.rank, x)
				for p := topo.offsets[x]; p < topo.offsets[x+1]; p++ {
					y := topo.heads[p]
					for _, dir := range []struct {
						a, b    graph.NodeID
						w, want float64
						mid     graph.NodeID
					}{
						{x, y, m.up.costs[p], from[y], m.up.mid[p]},
						{y, x, m.down.costs[p], to[y], m.down.mid[p]},
					} {
						if dir.w != dir.want {
							t.Fatalf("arc %d→%d: weight %v, lower-rank oracle %v", dir.a, dir.b, dir.w, dir.want)
						}
						if math.IsInf(dir.w, 1) {
							continue
						}
						c, edge := g.ArcCost(dir.a, dir.b)
						if edge && c == dir.w {
							if dir.mid != graph.Invalid {
								t.Fatalf("arc %d→%d: an original edge realises weight %v, but the middle is %d", dir.a, dir.b, dir.w, dir.mid)
							}
							continue
						}
						if dir.mid == graph.Invalid {
							t.Fatalf("arc %d→%d: no middle, but the cheapest edge is %v (exists %v), weight %v", dir.a, dir.b, c, edge, dir.w)
						}
						if topo.rank[dir.mid] >= topo.rank[x] {
							t.Fatalf("arc %d→%d: middle %d ranks %d, not below %d", dir.a, dir.b, dir.mid, topo.rank[dir.mid], topo.rank[x])
						}
						if s := weight(dir.a, dir.mid) + weight(dir.mid, dir.b); s != dir.w {
							t.Fatalf("arc %d→%d: through middle %d sums to %v, weight %v", dir.a, dir.b, dir.mid, s, dir.w)
						}
						for _, tr := range topo.tris[topo.triOff[p]:topo.triOff[p+1]] {
							v := topo.owner[tr.lo]
							if topo.rank[v] < topo.rank[dir.mid] && weight(dir.a, v)+weight(v, dir.b) == dir.w {
								t.Fatalf("arc %d→%d: middle %d realises weight %v, but %d, ranked lower, does too", dir.a, dir.b, dir.mid, dir.w, v)
							}
						}
					}
				}
			}
		})
	}
}
