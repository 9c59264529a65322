package search

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"repro/internal/estimator"
	"repro/internal/graph"
	"repro/internal/gridgen"
)

// diamond builds the classic 4-node graph where greedy-by-edge fails:
// 0→1 (1), 0→2 (4), 1→3 (5), 2→3 (1), and the direct 0→3 (7).
// Shortest 0→3 is 0→2→3 with cost 5.
func diamond(t *testing.T) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder(4, 5)
	b.AddNode(0, 0)
	b.AddNode(1, 1)
	b.AddNode(1, -1)
	b.AddNode(2, 0)
	b.AddEdge(0, 1, 1)
	b.AddEdge(0, 2, 4)
	b.AddEdge(1, 3, 5)
	b.AddEdge(2, 3, 1)
	b.AddEdge(0, 3, 7)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// allAlgorithms runs every algorithm on (g, s, d) and returns named results.
func allAlgorithms(t *testing.T, g *graph.Graph, s, d graph.NodeID) map[string]Result {
	t.Helper()
	out := make(map[string]Result)
	run := func(name string, r Result, err error) {
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out[name] = r
	}
	r, err := IterativeCtx(context.Background(), g, s, d)
	run("iterative", r, err)
	r, err = Dijkstra(g, s, d)
	run("dijkstra", r, err)
	r, err = AStarCtx(context.Background(), g, s, d, estimator.Euclidean())
	run("astar-euclidean", r, err)
	r, err = BidirectionalCtx(context.Background(), g, s, d)
	run("bidirectional", r, err)
	r, err = BestFirstCtx(context.Background(), g, s, d, Options{Frontier: FrontierScan})
	run("dijkstra-scan", r, err)
	r, err = BestFirstCtx(context.Background(), g, s, d, Options{Frontier: FrontierDuplicates})
	run("dijkstra-dup", r, err)
	return out
}

func TestDiamondShortest(t *testing.T) {
	g := diamond(t)
	for name, r := range allAlgorithms(t, g, 0, 3) {
		if !r.Found {
			t.Errorf("%s: not found", name)
			continue
		}
		if math.Abs(r.Cost-5) > 1e-12 {
			t.Errorf("%s: cost = %v, want 5", name, r.Cost)
		}
		want := []graph.NodeID{0, 2, 3}
		if len(r.Path.Nodes) != 3 {
			t.Errorf("%s: path = %v, want %v", name, r.Path.Nodes, want)
			continue
		}
		for i := range want {
			if r.Path.Nodes[i] != want[i] {
				t.Errorf("%s: path = %v, want %v", name, r.Path.Nodes, want)
				break
			}
		}
		if !r.Path.ValidIn(g) {
			t.Errorf("%s: path invalid", name)
		}
	}
}

func TestSourceEqualsDestination(t *testing.T) {
	g := diamond(t)
	for name, r := range allAlgorithms(t, g, 2, 2) {
		if !r.Found || r.Cost != 0 {
			t.Errorf("%s: s==d gave found=%v cost=%v", name, r.Found, r.Cost)
		}
		if r.Path.Len() != 0 || r.Path.Source() != 2 {
			t.Errorf("%s: s==d path = %v", name, r.Path.Nodes)
		}
	}
}

func TestNoPath(t *testing.T) {
	// Two disconnected components: 0-1 and 2-3.
	b := graph.NewBuilder(4, 2)
	for i := 0; i < 4; i++ {
		b.AddNode(float64(i), 0)
	}
	b.AddEdge(0, 1, 1)
	b.AddEdge(2, 3, 1)
	g := b.MustBuild()
	for name, r := range allAlgorithms(t, g, 0, 3) {
		if r.Found {
			t.Errorf("%s: found a path across components", name)
		}
		if !math.IsInf(r.Cost, 1) {
			t.Errorf("%s: cost = %v, want +Inf", name, r.Cost)
		}
		if len(r.Path.Nodes) != 0 {
			t.Errorf("%s: path = %v, want empty", name, r.Path.Nodes)
		}
	}
}

func TestDirectedness(t *testing.T) {
	// One-way street: 0→1 exists, 1→0 does not.
	b := graph.NewBuilder(2, 1)
	b.AddNode(0, 0)
	b.AddNode(1, 0)
	b.AddEdge(0, 1, 2)
	g := b.MustBuild()
	r, err := Dijkstra(g, 0, 1)
	if err != nil || !r.Found || r.Cost != 2 {
		t.Errorf("forward: %v %v", r, err)
	}
	r, err = Dijkstra(g, 1, 0)
	if err != nil || r.Found {
		t.Errorf("backward found=%v, want no path on a one-way edge", r.Found)
	}
}

func TestInvalidEndpoints(t *testing.T) {
	g := diamond(t)
	if _, err := Dijkstra(g, -1, 0); err == nil {
		t.Error("negative source accepted")
	}
	if _, err := Dijkstra(g, 0, 99); err == nil {
		t.Error("out-of-range destination accepted")
	}
	if _, err := IterativeCtx(context.Background(), g, 99, 0); err == nil {
		t.Error("iterative out-of-range source accepted")
	}
	if _, err := BidirectionalCtx(context.Background(), g, 0, -2); err == nil {
		t.Error("bidirectional invalid destination accepted")
	}
}

// Oracle property: on random connected-ish digraphs, every algorithm agrees
// with exhaustive single-source Dijkstra on both reachability and cost.
func TestAgreementOnRandomGraphs(t *testing.T) {
	rng := rand.New(rand.NewSource(2024))
	for trial := 0; trial < 60; trial++ {
		n := 2 + rng.Intn(60)
		b := graph.NewBuilder(n, 4*n)
		for i := 0; i < n; i++ {
			b.AddNode(rng.Float64()*100, rng.Float64()*100)
		}
		m := n + rng.Intn(3*n)
		for e := 0; e < m; e++ {
			u := graph.NodeID(rng.Intn(n))
			v := graph.NodeID(rng.Intn(n))
			b.AddEdge(u, v, rng.Float64()*10)
		}
		g := b.MustBuild()
		s := graph.NodeID(rng.Intn(n))
		d := graph.NodeID(rng.Intn(n))
		dist, _ := SingleSource(g, s)

		for name, r := range allAlgorithms(t, g, s, d) {
			if name == "astar-euclidean" {
				// Euclidean is not admissible here (random costs unrelated
				// to geometry): only require a valid path, checked below.
				if r.Found {
					if c, err := r.Path.CostIn(g); err != nil || math.Abs(c-r.Cost) > 1e-9 {
						t.Errorf("trial %d %s: reported cost %v but path costs %v (%v)", trial, name, r.Cost, c, err)
					}
				}
				continue
			}
			if r.Found != !math.IsInf(dist[d], 1) {
				t.Fatalf("trial %d %s: found=%v but oracle dist=%v", trial, name, r.Found, dist[d])
			}
			if r.Found {
				if math.Abs(r.Cost-dist[d]) > 1e-9 {
					t.Errorf("trial %d %s: cost %v, oracle %v", trial, name, r.Cost, dist[d])
				}
				if c, err := r.Path.CostIn(g); err != nil || math.Abs(c-r.Cost) > 1e-9 {
					t.Errorf("trial %d %s: path cost %v (%v) != reported %v", trial, name, c, err, r.Cost)
				}
			}
		}
	}
}

// On geometric graphs (costs = euclidean edge lengths) A*-euclidean is
// admissible and must be optimal, expanding no more nodes than Dijkstra.
func TestAStarOptimalAndFocusedOnGeometricGraphs(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 30; trial++ {
		n := 10 + rng.Intn(80)
		pts := make([]graph.Point, n)
		b := graph.NewBuilder(n, 6*n)
		for i := 0; i < n; i++ {
			pts[i] = graph.Point{X: rng.Float64() * 100, Y: rng.Float64() * 100}
			b.AddNode(pts[i].X, pts[i].Y)
		}
		for e := 0; e < 5*n; e++ {
			u := rng.Intn(n)
			v := rng.Intn(n)
			if u == v {
				continue
			}
			b.AddUndirectedEdge(graph.NodeID(u), graph.NodeID(v), pts[u].EuclideanDistance(pts[v]))
		}
		g := b.MustBuild()
		s := graph.NodeID(rng.Intn(n))
		d := graph.NodeID(rng.Intn(n))

		dij, err := Dijkstra(g, s, d)
		if err != nil {
			t.Fatal(err)
		}
		ast, err := AStarCtx(context.Background(), g, s, d, estimator.Euclidean())
		if err != nil {
			t.Fatal(err)
		}
		if dij.Found != ast.Found {
			t.Fatalf("trial %d: found mismatch", trial)
		}
		if !dij.Found {
			continue
		}
		if math.Abs(dij.Cost-ast.Cost) > 1e-9 {
			t.Errorf("trial %d: A* cost %v != Dijkstra %v (admissible estimator must be optimal)", trial, ast.Cost, dij.Cost)
		}
		if ast.Trace.Iterations > dij.Trace.Iterations {
			t.Errorf("trial %d: A* expanded %d > Dijkstra %d", trial, ast.Trace.Iterations, dij.Trace.Iterations)
		}
		if ast.Trace.Reopens != 0 {
			t.Errorf("trial %d: admissible+consistent estimator reopened %d nodes", trial, ast.Trace.Reopens)
		}
	}
}

// Iteration semantics on uniform grids — the quantities behind the paper's
// Tables 5 and 6.
func TestIterationCountsUniformGrid(t *testing.T) {
	for _, k := range []int{10, 20, 30} {
		g := gridgen.MustGenerate(gridgen.Config{K: k, Model: gridgen.Uniform})
		s, d := gridgen.Pair(k, gridgen.Diagonal, 0)

		// Iterative: rounds = grid diameter + 1 (19 / 39 / 59 in Table 5).
		it, err := IterativeCtx(context.Background(), g, s, d)
		if err != nil {
			t.Fatal(err)
		}
		if want := 2*(k-1) + 1; it.Trace.Iterations != want {
			t.Errorf("k=%d: iterative rounds = %d, want %d", k, it.Trace.Iterations, want)
		}
		if it.Cost != float64(2*(k-1)) {
			t.Errorf("k=%d: iterative diagonal cost = %v, want %d", k, it.Cost, 2*(k-1))
		}

		// Dijkstra: every non-destination node is expanded (99/399/899).
		dij, err := Dijkstra(g, s, d)
		if err != nil {
			t.Fatal(err)
		}
		if want := k*k - 1; dij.Trace.Iterations != want {
			t.Errorf("k=%d: dijkstra expansions = %d, want %d", k, dij.Trace.Iterations, want)
		}

		// A* with the perfect (manhattan) estimator and deeper-first
		// tie-break walks straight to the corner: L expansions.
		ast, err := AStarCtx(context.Background(), g, s, d, estimator.Manhattan())
		if err != nil {
			t.Fatal(err)
		}
		if want := 2 * (k - 1); ast.Trace.Iterations != want {
			t.Errorf("k=%d: A*-manhattan expansions = %d, want %d", k, ast.Trace.Iterations, want)
		}
		if ast.Cost != dij.Cost {
			t.Errorf("k=%d: A* cost %v != dijkstra %v", k, ast.Cost, dij.Cost)
		}
	}
}

// With 20% cost variance the counts shift the way Table 5 reports: A* is
// slightly below Dijkstra, both near n−1 for the diagonal worst case.
func TestIterationCountsVarianceGrid(t *testing.T) {
	for _, k := range []int{10, 20, 30} {
		g := gridgen.MustGenerate(gridgen.Config{K: k, Model: gridgen.Variance, Seed: 1993})
		s, d := gridgen.Pair(k, gridgen.Diagonal, 0)
		n := k * k

		dij, err := Dijkstra(g, s, d)
		if err != nil {
			t.Fatal(err)
		}
		if dij.Trace.Iterations < n-5 || dij.Trace.Iterations > n-1 {
			t.Errorf("k=%d: dijkstra expansions = %d, want ≈ %d", k, dij.Trace.Iterations, n-1)
		}

		ast, err := AStarCtx(context.Background(), g, s, d, estimator.Manhattan())
		if err != nil {
			t.Fatal(err)
		}
		if ast.Trace.Iterations > dij.Trace.Iterations {
			t.Errorf("k=%d: A* %d > dijkstra %d", k, ast.Trace.Iterations, dij.Trace.Iterations)
		}
		// Variance forces backtracking: far more work than the perfect case.
		if ast.Trace.Iterations < 2*(k-1) {
			t.Errorf("k=%d: A* expansions = %d, suspiciously few under variance", k, ast.Trace.Iterations)
		}

		it, err := IterativeCtx(context.Background(), g, s, d)
		if err != nil {
			t.Fatal(err)
		}
		if it.Trace.Iterations < 2*(k-1)+1 || it.Trace.Iterations > 2*(k-1)+6 {
			t.Errorf("k=%d: iterative rounds = %d, want ≈ %d", k, it.Trace.Iterations, 2*(k-1)+1)
		}
		// Iterative and Dijkstra agree on cost; manhattan stays admissible
		// here (all edges cost ≥ 1, estimate counts edges).
		if math.Abs(it.Cost-dij.Cost) > 1e-9 || math.Abs(ast.Cost-dij.Cost) > 1e-9 {
			t.Errorf("k=%d: costs disagree: it=%v dij=%v a*=%v", k, it.Cost, dij.Cost, ast.Cost)
		}
	}
}

// Path-length sensitivity (Table 6): A* expansions grow with path length
// while Iterative rounds stay constant.
func TestPathLengthSensitivity(t *testing.T) {
	const k = 30
	g := gridgen.MustGenerate(gridgen.Config{K: k, Model: gridgen.Variance, Seed: 1993})

	var astIters, dijIters [3]int
	var itRounds [3]int
	kinds := []gridgen.PairKind{gridgen.Horizontal, gridgen.SemiDiagonal, gridgen.Diagonal}
	for i, kind := range kinds {
		s, d := gridgen.Pair(k, kind, 0)
		ast, err := AStarCtx(context.Background(), g, s, d, estimator.Manhattan())
		if err != nil {
			t.Fatal(err)
		}
		dij, err := Dijkstra(g, s, d)
		if err != nil {
			t.Fatal(err)
		}
		it, err := IterativeCtx(context.Background(), g, s, d)
		if err != nil {
			t.Fatal(err)
		}
		astIters[i], dijIters[i], itRounds[i] = ast.Trace.Iterations, dij.Trace.Iterations, it.Trace.Iterations
	}
	if !(astIters[0] < astIters[1] && astIters[1] < astIters[2]) {
		t.Errorf("A* expansions not increasing with path length: %v", astIters)
	}
	if !(dijIters[0] < dijIters[1] && dijIters[1] < dijIters[2]) {
		t.Errorf("Dijkstra expansions not increasing with path length: %v", dijIters)
	}
	if itRounds[0] != itRounds[1] || itRounds[1] != itRounds[2] {
		t.Errorf("Iterative rounds vary with destination: %v (must be insensitive)", itRounds)
	}
	// Horizontal: A* beats Dijkstra by an order of magnitude (29 vs 488 in
	// the paper).
	if astIters[0]*5 > dijIters[0] {
		t.Errorf("horizontal: A* %d not ≪ Dijkstra %d", astIters[0], dijIters[0])
	}
}

// Skewed costs eliminate backtracking (Table 7): both Dijkstra and A* drop
// far below the diagonal worst case.
func TestSkewedCostModel(t *testing.T) {
	const k = 20
	gU := gridgen.MustGenerate(gridgen.Config{K: k, Model: gridgen.Uniform})
	gS := gridgen.MustGenerate(gridgen.Config{K: k, Model: gridgen.Skewed})
	s, d := gridgen.Pair(k, gridgen.Diagonal, 0)

	dijU, _ := Dijkstra(gU, s, d)
	dijS, _ := Dijkstra(gS, s, d)
	if dijS.Trace.Iterations*4 > dijU.Trace.Iterations {
		t.Errorf("skewed dijkstra %d not ≪ uniform %d", dijS.Trace.Iterations, dijU.Trace.Iterations)
	}
	astS, _ := AStarCtx(context.Background(), gS, s, d, estimator.Manhattan())
	// The cheap corridor has 2(k−1) edges; A* should track it closely.
	if astS.Trace.Iterations > 3*(k-1) {
		t.Errorf("skewed A* expansions = %d, want ≈ %d", astS.Trace.Iterations, 2*(k-1))
	}
	if math.Abs(astS.Cost-dijS.Cost) > 1e-9 {
		t.Errorf("skewed A* cost %v != dijkstra %v", astS.Cost, dijS.Cost)
	}
	// The optimal route is the corridor: cost 2(k−1)·0.1.
	if want := 2 * float64(k-1) * 0.1; math.Abs(dijS.Cost-want) > 1e-9 {
		t.Errorf("skewed optimal cost %v, want %v", dijS.Cost, want)
	}
}

// All frontier kinds must agree on cost; the duplicates frontier may take
// extra iterations (Section 4's "redundant iterations").
func TestFrontierKindsAgree(t *testing.T) {
	g := gridgen.MustGenerate(gridgen.Config{K: 12, Model: gridgen.Variance, Seed: 5})
	s, d := gridgen.Pair(12, gridgen.SemiDiagonal, 0)
	heap, err := BestFirstCtx(context.Background(), g, s, d, Options{Frontier: FrontierHeap})
	if err != nil {
		t.Fatal(err)
	}
	scan, err := BestFirstCtx(context.Background(), g, s, d, Options{Frontier: FrontierScan})
	if err != nil {
		t.Fatal(err)
	}
	dup, err := BestFirstCtx(context.Background(), g, s, d, Options{Frontier: FrontierDuplicates})
	if err != nil {
		t.Fatal(err)
	}
	if heap.Cost != scan.Cost || heap.Cost != dup.Cost {
		t.Errorf("costs: heap=%v scan=%v dup=%v", heap.Cost, scan.Cost, dup.Cost)
	}
	if heap.Trace.Iterations != scan.Trace.Iterations {
		t.Errorf("heap and scan frontiers expanded different counts: %d vs %d",
			heap.Trace.Iterations, scan.Trace.Iterations)
	}
	if dup.Trace.Iterations < heap.Trace.Iterations {
		t.Errorf("duplicates frontier expanded fewer (%d) than heap (%d)",
			dup.Trace.Iterations, heap.Trace.Iterations)
	}
}

func TestFrontierKindString(t *testing.T) {
	if FrontierHeap.String() != "heap" || FrontierScan.String() != "scan" ||
		FrontierDuplicates.String() != "duplicates" {
		t.Error("FrontierKind names wrong")
	}
	if FrontierKind(9).String() != "FrontierKind(9)" {
		t.Errorf("unknown kind = %q", FrontierKind(9).String())
	}
}

// An inadmissible estimator may reopen nodes but must still return a valid
// path; weighted A* cost inflation is bounded by the weight.
func TestWeightedAStarInflation(t *testing.T) {
	g := gridgen.MustGenerate(gridgen.Config{K: 15, Model: gridgen.Variance, Seed: 11})
	s, d := gridgen.Pair(15, gridgen.Diagonal, 0)
	opt, err := Dijkstra(g, s, d)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []float64{1.5, 2, 4} {
		r, err := AStarCtx(context.Background(), g, s, d, estimator.Scaled(estimator.Manhattan(), w))
		if err != nil {
			t.Fatal(err)
		}
		if !r.Found {
			t.Fatalf("w=%v: no path", w)
		}
		if !r.Path.ValidIn(g) {
			t.Fatalf("w=%v: invalid path", w)
		}
		if r.Cost < opt.Cost-1e-9 {
			t.Errorf("w=%v: cost %v below optimum %v", w, r.Cost, opt.Cost)
		}
		if r.Cost > w*opt.Cost+1e-9 {
			t.Errorf("w=%v: cost %v exceeds %v × optimum %v", w, r.Cost, w, opt.Cost)
		}
		if r.Trace.Iterations > opt.Trace.Iterations {
			t.Errorf("w=%v: weighted A* expanded %d > dijkstra %d", w, r.Trace.Iterations, opt.Trace.Iterations)
		}
	}
}

func TestBidirectionalMatchesDijkstraOnGrids(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	g := gridgen.MustGenerate(gridgen.Config{K: 20, Model: gridgen.Variance, Seed: 77})
	for trial := 0; trial < 40; trial++ {
		s := graph.NodeID(rng.Intn(400))
		d := graph.NodeID(rng.Intn(400))
		bi, err := BidirectionalCtx(context.Background(), g, s, d)
		if err != nil {
			t.Fatal(err)
		}
		dij, err := Dijkstra(g, s, d)
		if err != nil {
			t.Fatal(err)
		}
		if bi.Found != dij.Found {
			t.Fatalf("trial %d: found mismatch", trial)
		}
		if !bi.Found {
			continue
		}
		if math.Abs(bi.Cost-dij.Cost) > 1e-9 {
			t.Errorf("trial %d: bidirectional %v != dijkstra %v", trial, bi.Cost, dij.Cost)
		}
		if !bi.Path.ValidIn(g) {
			t.Errorf("trial %d: stitched path invalid: %v", trial, bi.Path.Nodes)
		}
		if c, _ := bi.Path.CostIn(g); math.Abs(c-bi.Cost) > 1e-9 {
			t.Errorf("trial %d: stitched path costs %v, reported %v", trial, c, bi.Cost)
		}
	}
}

func TestBidirectionalExpandsFewerOnLongPaths(t *testing.T) {
	g := gridgen.MustGenerate(gridgen.Config{K: 30, Model: gridgen.Variance, Seed: 4})
	s, d := gridgen.Pair(30, gridgen.Diagonal, 0)
	bi, _ := BidirectionalCtx(context.Background(), g, s, d)
	dij, _ := Dijkstra(g, s, d)
	if bi.Trace.Iterations >= dij.Trace.Iterations {
		t.Errorf("bidirectional %d >= dijkstra %d on the diagonal", bi.Trace.Iterations, dij.Trace.Iterations)
	}
}

func TestSingleSourceUnreachableAndInvalid(t *testing.T) {
	b := graph.NewBuilder(3, 1)
	b.AddNode(0, 0)
	b.AddNode(1, 0)
	b.AddNode(2, 0)
	b.AddEdge(0, 1, 1)
	g := b.MustBuild()
	dist, prev := SingleSource(g, 0)
	if dist[0] != 0 || dist[1] != 1 || !math.IsInf(dist[2], 1) {
		t.Errorf("dist = %v", dist)
	}
	if prev[1] != 0 || prev[2] != graph.Invalid {
		t.Errorf("prev = %v", prev)
	}
	dist, _ = SingleSource(g, -1)
	for i, v := range dist {
		if !math.IsInf(v, 1) {
			t.Errorf("invalid source: dist[%d] = %v", i, v)
		}
	}
}

func TestVerifyAdmissible(t *testing.T) {
	// Manhattan is a perfect (hence admissible) estimator on a uniform grid.
	g := gridgen.MustGenerate(gridgen.Config{K: 8, Model: gridgen.Uniform})
	_, d := gridgen.Pair(8, gridgen.Diagonal, 0)
	if v := VerifyAdmissible(g, estimator.Manhattan(), d, 1e-9); len(v) != 0 {
		t.Errorf("manhattan inadmissible on uniform grid: %v", v[0])
	}
	if v := VerifyAdmissible(g, estimator.Euclidean(), d, 1e-9); len(v) != 0 {
		t.Errorf("euclidean inadmissible on uniform grid: %v", v[0])
	}

	// Add a cheap diagonal shortcut: manhattan now overestimates across it.
	b := graph.NewBuilder(3, 3)
	b.AddNode(0, 0)
	b.AddNode(1, 1)
	b.AddNode(2, 2)
	b.AddEdge(0, 1, 0.5) // manhattan(0,1) = 2 > 0.5
	b.AddEdge(1, 2, 0.5)
	sg := b.MustBuild()
	if v := VerifyAdmissible(sg, estimator.Manhattan(), 2, 1e-9); len(v) == 0 {
		t.Error("manhattan admissible across a diagonal shortcut: impossible")
	}
	// The zero estimator is admissible everywhere.
	if v := VerifyAdmissible(sg, estimator.Zero(), 2, 1e-9); len(v) != 0 {
		t.Errorf("zero estimator inadmissible: %v", v[0])
	}
}

// The reopening mechanism: with an aggressively inadmissible estimator on a
// graph designed to mislead it, A* (Figure 3 semantics) reopens closed nodes
// yet still terminates with a valid path.
func TestAStarReopensUnderInadmissibleEstimator(t *testing.T) {
	// Geometry lies: node 1 looks far from the goal but is on the cheap
	// route; a huge weight makes A* close nodes prematurely.
	b := graph.NewBuilder(4, 4)
	b.AddNode(0, 0)  // s
	b.AddNode(0, 10) // detour that is actually cheap
	b.AddNode(1, 0)  // looks close, actually expensive to leave
	b.AddNode(2, 0)  // d
	b.AddEdge(0, 1, 0.1)
	b.AddEdge(0, 2, 0.1)
	b.AddEdge(2, 3, 10)
	b.AddEdge(1, 3, 0.1)
	g := b.MustBuild()
	r, err := AStarCtx(context.Background(), g, 0, 3, estimator.Scaled(estimator.Euclidean(), 10))
	if err != nil {
		t.Fatal(err)
	}
	if !r.Found || !r.Path.ValidIn(g) {
		t.Fatalf("result: %+v", r)
	}
	// Optimal is 0→1→3 = 0.2. Weighted A* may or may not find it, but must
	// never return something invalid or better than optimal.
	if r.Cost < 0.2-1e-12 {
		t.Errorf("cost %v below optimum", r.Cost)
	}
}

func TestTraceCounters(t *testing.T) {
	g := diamond(t)
	r, err := Dijkstra(g, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	tr := r.Trace
	if tr.Iterations == 0 || tr.Expansions != tr.Iterations {
		t.Errorf("iterations/expansions: %+v", tr)
	}
	if tr.Relaxations < tr.Improvements {
		t.Errorf("relaxations %d < improvements %d", tr.Relaxations, tr.Improvements)
	}
	if tr.MaxFrontier < 1 {
		t.Errorf("max frontier %d", tr.MaxFrontier)
	}
	it, err := IterativeCtx(context.Background(), g, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if it.Trace.Iterations == 0 || it.Trace.Expansions < it.Trace.Iterations {
		t.Errorf("iterative trace: %+v", it.Trace)
	}
}

// The defining contrast of the paper: Iterative explores everything always;
// Dijkstra and A* stop early on short paths.
func TestEarlyTerminationContrast(t *testing.T) {
	const k = 30
	g := gridgen.MustGenerate(gridgen.Config{K: k, Model: gridgen.Variance, Seed: 9})
	// Short hop: two adjacent nodes in the middle.
	s := gridgen.NodeAt(k, 15, 15)
	d := gridgen.NodeAt(k, 15, 16)
	dij, _ := Dijkstra(g, s, d)
	ast, _ := AStarCtx(context.Background(), g, s, d, estimator.Manhattan())
	it, _ := IterativeCtx(context.Background(), g, s, d)
	if ast.Trace.Expansions > 4 {
		t.Errorf("A* expanded %d nodes for an adjacent pair", ast.Trace.Expansions)
	}
	if dij.Trace.Expansions > 10 {
		t.Errorf("Dijkstra expanded %d nodes for an adjacent pair", dij.Trace.Expansions)
	}
	// Iterative still settles the whole graph.
	if it.Trace.Expansions < k*k {
		t.Errorf("Iterative expanded only %d nodes; must explore everything", it.Trace.Expansions)
	}
}
