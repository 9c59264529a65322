package search

import (
	"context"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/ch"
	"repro/internal/estimator"
	"repro/internal/graph"
	"repro/internal/gridgen"
)

// differential_test.go cross-checks the search kernels against each
// other: on any graph, Iterative, Dijkstra, A* with an admissible
// estimator, Bidirectional, and the contraction-hierarchy engine must
// agree on reachability and on the shortest-path cost (paths may differ
// when ties exist, but never costs). A metamorphic pass then scales every
// edge cost by a constant λ and asserts the optimal cost scales by exactly
// λ. Run under -race via `make check`, this doubles as a concurrency
// shakeout of the pooled workspaces the kernels share.

const costTol = 1e-9

type kernel struct {
	name string
	run  func(g *graph.Graph, s, d graph.NodeID) (Result, error)
}

// chIndexes caches one contraction hierarchy per graph for the CH pseudo-
// kernel below, with the edge costs it was built at, and rebuilds it
// whenever the graph's costs differ — exercised every time a metamorphic
// test mutates costs between runs. sync.Map because the differential
// harness also runs under -race with concurrent subtests.
var chIndexes sync.Map // *graph.Graph → chEntry

// chEntry is one cached hierarchy and the graph's edges, costs included,
// when it was built.
type chEntry struct {
	ix    *ch.Index
	edges []graph.Edge
}

// runCH adapts the contraction-hierarchy engine to the kernel signature,
// (re)preprocessing on demand. Its settled/relaxed counters map onto the
// trace's expansion counters like every other kernel's.
func runCH(g *graph.Graph, s, d graph.NodeID) (Result, error) {
	edges := g.Edges()
	v, ok := chIndexes.Load(g)
	e, _ := v.(chEntry)
	if !ok || !slices.Equal(e.edges, edges) {
		ix, err := ch.Build(g, ch.Options{})
		if err != nil {
			return Result{}, err
		}
		e = chEntry{ix: ix, edges: edges}
		chIndexes.Store(g, e)
	}
	res, err := e.ix.QueryCtx(context.Background(), s, d)
	if err != nil {
		return Result{}, err
	}
	return Result{
		Found: res.Found,
		Path:  res.Path,
		Cost:  res.Cost,
		Trace: Trace{
			Iterations:  res.Settled,
			Expansions:  res.Settled,
			Relaxations: res.Relaxed,
		},
	}, nil
}

// kernelsWith enumerates the implementations under differential test,
// with A* using the given estimator. The Skewed cost model is
// deliberately absent from the generated graphs: its 0.1-cost skewed
// arcs undercut geometric length, which would make the Euclidean
// estimator inadmissible and exempt A* from optimality.
func kernelsWith(est *estimator.Estimator) []kernel {
	return []kernel{
		{"iterative", func(g *graph.Graph, s, d graph.NodeID) (Result, error) {
			return IterativeCtx(context.Background(), g, s, d)
		}},
		{"dijkstra", Dijkstra},
		{"astar-" + est.String(), func(g *graph.Graph, s, d graph.NodeID) (Result, error) {
			return AStarCtx(context.Background(), g, s, d, est)
		}},
		{"bidirectional", func(g *graph.Graph, s, d graph.NodeID) (Result, error) {
			return BidirectionalCtx(context.Background(), g, s, d)
		}},
		{"ch", runCH},
	}
}

// checkPath validates a reported path end-to-end: endpoints, edge
// existence, and that the summed arc costs reproduce the reported cost.
func checkPath(t *testing.T, g *graph.Graph, s, d graph.NodeID, res Result) {
	t.Helper()
	nodes := res.Path.Nodes
	if len(nodes) == 0 || nodes[0] != s || nodes[len(nodes)-1] != d {
		t.Fatalf("path endpoints %v do not span %d→%d", nodes, s, d)
	}
	sum := 0.0
	for i := 0; i+1 < len(nodes); i++ {
		c, ok := g.ArcCost(nodes[i], nodes[i+1])
		if !ok {
			t.Fatalf("path uses nonexistent edge %d→%d", nodes[i], nodes[i+1])
		}
		sum += c
	}
	if math.Abs(sum-res.Cost) > costTol*(1+math.Abs(res.Cost)) {
		t.Fatalf("path cost %v does not match reported cost %v", sum, res.Cost)
	}
}

// runAll executes every kernel on (s, d) and asserts pairwise agreement
// on Found and Cost, returning the agreed optimal cost. est is the
// admissible estimator handed to A* — callers scaling edge costs below
// geometric length must scale the estimator down to match.
func runAll(t *testing.T, g *graph.Graph, s, d graph.NodeID, est *estimator.Estimator) (found bool, cost float64) {
	t.Helper()
	type outcome struct {
		name string
		res  Result
	}
	var outs []outcome
	for _, k := range kernelsWith(est) {
		res, err := k.run(g, s, d)
		if err != nil {
			t.Fatalf("%s(%d,%d): %v", k.name, s, d, err)
		}
		if res.Found {
			checkPath(t, g, s, d, res)
		}
		outs = append(outs, outcome{k.name, res})
	}
	base := outs[0]
	for _, o := range outs[1:] {
		if o.res.Found != base.res.Found {
			t.Fatalf("%d→%d: %s Found=%v but %s Found=%v",
				s, d, base.name, base.res.Found, o.name, o.res.Found)
		}
		if base.res.Found {
			diff := math.Abs(o.res.Cost - base.res.Cost)
			if diff > costTol*(1+math.Abs(base.res.Cost)) {
				t.Fatalf("%d→%d: %s cost %v disagrees with %s cost %v",
					s, d, base.name, base.res.Cost, o.name, o.res.Cost)
			}
		}
	}
	return base.res.Found, base.res.Cost
}

// TestKernelsAgreeOnRandomGrids is the differential harness proper:
// randomized endpoint pairs over Uniform and Variance grids of several
// sizes, all kernels in lockstep.
func TestKernelsAgreeOnRandomGrids(t *testing.T) {
	cases := []struct {
		k     int
		model gridgen.CostModel
		seed  int64
	}{
		{4, gridgen.Uniform, 1},
		{7, gridgen.Uniform, 2},
		{7, gridgen.Variance, 3},
		{11, gridgen.Variance, 4},
		{13, gridgen.Variance, 5},
	}
	pairs := 12
	if testing.Short() {
		pairs = 4
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.model.String(), func(t *testing.T) {
			g, err := gridgen.Generate(gridgen.Config{K: tc.k, Model: tc.model, Seed: tc.seed})
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(tc.seed * 7919))
			n := g.NumNodes()
			for i := 0; i < pairs; i++ {
				s := graph.NodeID(rng.Intn(n))
				d := graph.NodeID(rng.Intn(n))
				found, _ := runAll(t, g, s, d, estimator.Euclidean())
				if !found {
					t.Fatalf("%d→%d unreachable on a connected grid", s, d)
				}
			}
			// Degenerate pair: s == d must cost zero everywhere.
			s := graph.NodeID(rng.Intn(n))
			if found, cost := runAll(t, g, s, s, estimator.Euclidean()); !found || cost != 0 {
				t.Fatalf("%d→%d: want found at cost 0, got found=%v cost=%v", s, s, found, cost)
			}
		})
	}
}

// TestCHAgreesAfterRandomMutations interleaves random one-edge ApplyBatch
// mutations with full-kernel agreement rounds. Every mutation changes the
// graph's costs, so the CH pseudo-kernel's cached hierarchy goes stale and
// must rebuild before its next answer, and Bidirectional's cached reverse
// view must be dropped — if either cache were kept, it would answer with
// costs from a retired round and the agreement assertion would catch it.
func TestCHAgreesAfterRandomMutations(t *testing.T) {
	base, err := gridgen.Generate(gridgen.Config{K: 9, Model: gridgen.Variance, Seed: 77})
	if err != nil {
		t.Fatal(err)
	}
	g := base.Clone()
	rng := rand.New(rand.NewSource(77))
	n := g.NumNodes()
	edges := g.Edges()
	rounds, pairs, mutations := 5, 6, 8
	if testing.Short() {
		rounds = 2
	}
	for round := 0; round < rounds; round++ {
		for i := 0; i < pairs; i++ {
			s := graph.NodeID(rng.Intn(n))
			d := graph.NodeID(rng.Intn(n))
			runAll(t, g, s, d, estimator.Zero())
		}
		// Mutate: costs may rise or fall but stay ≥ 0.1 so the graph stays
		// valid. The estimator above is Zero (always admissible), because
		// lowered costs would break Euclidean's admissibility.
		for i := 0; i < mutations; i++ {
			e := edges[rng.Intn(len(edges))]
			cur, _ := g.ArcCost(e.Tail, e.Head)
			factor := 0.5 + rng.Float64()*1.5
			if _, err := g.ApplyBatch([]graph.EdgeCostChange{{Tail: e.Tail, Head: e.Head, Cost: math.Max(0.1, cur*factor)}}); err != nil {
				t.Fatalf("mutating %d→%d: %v", e.Tail, e.Head, err)
			}
		}
	}
}

// TestMetamorphicCostScaling checks the scaling relation: multiplying
// every edge cost by λ must multiply the optimal cost by exactly λ,
// for every kernel. The scaled graph is a Clone of the original, which
// shares its structure, mutated through one-edge ApplyBatch calls —
// Bidirectional on the clone would answer with the original's costs if
// the clone shared its cached reverse view.
func TestMetamorphicCostScaling(t *testing.T) {
	g, err := gridgen.Generate(gridgen.Config{K: 9, Model: gridgen.Variance, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	for _, lambda := range []float64{0.25, 3} {
		scaled := g.Clone()
		for _, e := range g.Edges() {
			if _, err := scaled.ApplyBatch([]graph.EdgeCostChange{{Tail: e.Tail, Head: e.Head, Cost: e.Cost * lambda}}); err != nil {
				t.Fatalf("scaling edge %d→%d: %v", e.Tail, e.Head, err)
			}
		}
		// Euclidean is admissible on the base grid because every edge
		// costs at least its unit geometric length; after scaling by
		// λ < 1 that no longer holds, so A* on the scaled graph gets the
		// estimator scaled by min(1, λ) to stay admissible.
		scaledEst := estimator.Euclidean()
		if lambda < 1 {
			scaledEst = estimator.Scaled(estimator.Euclidean(), lambda)
		}
		rng := rand.New(rand.NewSource(int64(lambda * 1000)))
		n := g.NumNodes()
		for i := 0; i < 8; i++ {
			s := graph.NodeID(rng.Intn(n))
			d := graph.NodeID(rng.Intn(n))
			_, base := runAll(t, g, s, d, estimator.Euclidean())
			_, got := runAll(t, scaled, s, d, scaledEst)
			want := base * lambda
			if math.Abs(got-want) > costTol*(1+math.Abs(want)) {
				t.Fatalf("λ=%v %d→%d: scaled cost %v, want %v (base %v)", lambda, s, d, got, want, base)
			}
		}
	}
}
