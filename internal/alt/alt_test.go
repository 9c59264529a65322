package alt

import (
	"context"
	"math"
	"testing"

	"repro/internal/estimator"
	"repro/internal/graph"
	"repro/internal/gridgen"
	"repro/internal/mpls"
	"repro/internal/search"
)

func TestPreprocessValidation(t *testing.T) {
	g := gridgen.MustGenerate(gridgen.Config{K: 4})
	if _, err := Preprocess(g, nil); err == nil {
		t.Error("no landmarks accepted")
	}
	if _, err := Preprocess(g, []graph.NodeID{99}); err == nil {
		t.Error("out-of-range landmark accepted")
	}
	a, err := Preprocess(g, []graph.NodeID{0, 15})
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Landmarks()) != 2 {
		t.Errorf("landmarks = %v", a.Landmarks())
	}
}

// The core property: ALT is admissible for every (u, d) pair, by the
// triangle inequality, on any cost metric.
func TestALTAdmissibleEverywhere(t *testing.T) {
	g := gridgen.MustGenerate(gridgen.Config{K: 8, Model: gridgen.Variance, Seed: 6})
	lm, err := SelectLandmarks(g, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	a, err := Preprocess(g, lm)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range []graph.NodeID{0, 13, 63} {
		if v := search.VerifyAdmissible(g, a.Estimator(), d, 1e-9); len(v) != 0 {
			t.Errorf("dest %d: ALT inadmissible: %v", d, v[0])
		}
	}
}

// ALT on the road map: admissible where manhattan is not, and A* with it is
// optimal while expanding no more nodes than Dijkstra.
func TestALTOnRoadMap(t *testing.T) {
	g := mpls.MustGenerate(mpls.Config{})
	lm, err := SelectLandmarks(g, 4, 7)
	if err != nil {
		t.Fatal(err)
	}
	a, err := Preprocess(g, lm)
	if err != nil {
		t.Fatal(err)
	}
	est := a.Estimator()
	d, _ := g.Lookup("D")
	if v := search.VerifyAdmissible(g, est, d, 1e-9); len(v) != 0 {
		t.Fatalf("ALT inadmissible on road map: %v", v[0])
	}
	for _, pp := range mpls.PaperPaths() {
		s, _ := g.Lookup(pp.From)
		dd, _ := g.Lookup(pp.To)
		dij, _ := search.Dijkstra(g, s, dd)
		ast, err := search.AStarCtx(context.Background(), g, s, dd, est)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(ast.Cost-dij.Cost) > 1e-9 {
			t.Errorf("%s: ALT A* cost %v != optimal %v", pp.Name, ast.Cost, dij.Cost)
		}
		if ast.Trace.Iterations > dij.Trace.Iterations {
			t.Errorf("%s: ALT A* expanded %d > dijkstra %d", pp.Name, ast.Trace.Iterations, dij.Trace.Iterations)
		}
	}
}

// On a travel-time metric (costs unrelated to coordinates), the geometric
// estimators carry no information, but ALT still focuses the search.
func TestALTBeatsGeometryOnNonGeometricCosts(t *testing.T) {
	// Grid whose costs are all 10× distance except a fast corridor: scale
	// every edge ×10, then make the bottom row and right column fast.
	g := gridgen.MustGenerate(gridgen.Config{K: 12, Model: gridgen.Skewed, SkewCost: 0.5})
	for _, e := range g.Edges() {
		if _, err := g.ApplyBatch([]graph.EdgeCostChange{{Tail: e.Tail, Head: e.Head, Cost: e.Cost * 10}}); err != nil {
			t.Fatal(err)
		}
	}
	s, d := gridgen.Pair(12, gridgen.Diagonal, 0)
	lm, err := SelectLandmarks(g, 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	a, err := Preprocess(g, lm)
	if err != nil {
		t.Fatal(err)
	}
	dij, _ := search.Dijkstra(g, s, d)
	alt, err := search.AStarCtx(context.Background(), g, s, d, a.Estimator())
	if err != nil {
		t.Fatal(err)
	}
	euc, _ := search.AStarCtx(context.Background(), g, s, d, estimator.Euclidean())
	if math.Abs(alt.Cost-dij.Cost) > 1e-9 {
		t.Fatalf("ALT suboptimal: %v vs %v", alt.Cost, dij.Cost)
	}
	if alt.Trace.Iterations >= euc.Trace.Iterations {
		t.Errorf("ALT expanded %d, euclidean %d: landmarks should dominate weak geometry",
			alt.Trace.Iterations, euc.Trace.Iterations)
	}
}

func TestEstimateSelfIsZero(t *testing.T) {
	g := gridgen.MustGenerate(gridgen.Config{K: 5})
	a, err := Preprocess(g, []graph.NodeID{0})
	if err != nil {
		t.Fatal(err)
	}
	for u := graph.NodeID(0); int(u) < g.NumNodes(); u++ {
		if e := a.Estimate(u, u); e != 0 {
			t.Errorf("Estimate(%d,%d) = %v, want 0 (f(d,d)=0 per Lemma 3)", u, u, e)
		}
	}
}

func TestSelectLandmarks(t *testing.T) {
	g := gridgen.MustGenerate(gridgen.Config{K: 6})
	lm, err := SelectLandmarks(g, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(lm) != 4 {
		t.Fatalf("got %d landmarks", len(lm))
	}
	seen := map[graph.NodeID]bool{}
	for _, l := range lm {
		if seen[l] {
			t.Errorf("duplicate landmark %d", l)
		}
		seen[l] = true
	}
	// Validation.
	if _, err := SelectLandmarks(g, 0, 1); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := SelectLandmarks(g, 99, 1); err == nil {
		t.Error("k>n accepted")
	}
	if _, err := SelectLandmarks(graph.NewBuilder(0, 0).MustBuild(), 1, 1); err == nil {
		t.Error("empty graph accepted")
	}
	// Determinism per seed.
	lm2, _ := SelectLandmarks(g, 4, 2)
	for i := range lm {
		if lm[i] != lm2[i] {
			t.Error("landmark selection not deterministic")
		}
	}
}

func TestMoreLandmarksNeverHurtEstimate(t *testing.T) {
	g := gridgen.MustGenerate(gridgen.Config{K: 7, Model: gridgen.Variance, Seed: 5})
	a1, err := Preprocess(g, []graph.NodeID{0})
	if err != nil {
		t.Fatal(err)
	}
	a2, err := Preprocess(g, []graph.NodeID{0, 48, 6})
	if err != nil {
		t.Fatal(err)
	}
	for u := graph.NodeID(0); int(u) < g.NumNodes(); u++ {
		for _, d := range []graph.NodeID{3, 24, 48} {
			if a2.Estimate(u, d) < a1.Estimate(u, d)-1e-12 {
				t.Fatalf("superset of landmarks weakened the bound at (%d,%d)", u, d)
			}
		}
	}
}
