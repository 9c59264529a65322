package core

import (
	"context"
	"math"
	"strings"
	"testing"

	"repro/internal/gridgen"
	"repro/internal/search"
)

func TestAlgorithmNamesRoundTrip(t *testing.T) {
	for _, a := range Algorithms() {
		got, err := ParseAlgorithm(a.String())
		if err != nil || got != a {
			t.Errorf("%v: parse = %v, %v", a, got, err)
		}
	}
	if _, err := ParseAlgorithm("quantum"); err == nil {
		t.Error("unknown name parsed")
	}
	if Algorithm(99).String() != "Algorithm(99)" {
		t.Error("unknown algorithm name")
	}
	// Case-insensitive.
	if a, err := ParseAlgorithm("DIJKSTRA"); err != nil || a != Dijkstra {
		t.Errorf("upper-case parse = %v, %v", a, err)
	}
}

func TestAllAlgorithmsAgreeOnOptimalCost(t *testing.T) {
	const k = 12
	g := gridgen.MustGenerate(gridgen.Config{K: k, Model: gridgen.Variance, Seed: 5})
	p := New(g)
	s, d := gridgen.Pair(k, gridgen.SemiDiagonal, 0)

	want := math.NaN()
	for _, a := range Algorithms() {
		if a == CH {
			continue // needs a prebuilt hierarchy; see TestCHOnBarePlannerRejected
		}
		r, err := p.RouteCtx(context.Background(), s, d, Options{Algorithm: a})
		if err != nil {
			t.Fatalf("%v: %v", a, err)
		}
		if !r.Found {
			t.Fatalf("%v: not found", a)
		}
		if r.Algorithm != a {
			t.Errorf("%v: result labelled %v", a, r.Algorithm)
		}
		if math.IsNaN(want) {
			want = r.Cost
			continue
		}
		if math.Abs(r.Cost-want) > 1e-9 {
			t.Errorf("%v: cost %v, others %v", a, r.Cost, want)
		}
	}
}

func TestWeightedRouteBounded(t *testing.T) {
	const k = 15
	g := gridgen.MustGenerate(gridgen.Config{K: k, Model: gridgen.Variance, Seed: 2})
	p := New(g)
	s, d := gridgen.Pair(k, gridgen.Diagonal, 0)
	opt, err := p.RouteCtx(context.Background(), s, d, Options{Algorithm: Dijkstra})
	if err != nil {
		t.Fatal(err)
	}
	w, err := p.RouteCtx(context.Background(), s, d, Options{Algorithm: AStarManhattan, Weight: 2})
	if err != nil {
		t.Fatal(err)
	}
	if w.Cost < opt.Cost-1e-9 || w.Cost > 2*opt.Cost+1e-9 {
		t.Errorf("weighted cost %v outside [%v, %v]", w.Cost, opt.Cost, 2*opt.Cost)
	}
	if w.Trace.Iterations > opt.Trace.Iterations {
		t.Errorf("weighted A* expanded more (%d) than Dijkstra (%d)", w.Trace.Iterations, opt.Trace.Iterations)
	}
}

func TestFrontierOptionPassedThrough(t *testing.T) {
	g := gridgen.MustGenerate(gridgen.Config{K: 8, Model: gridgen.Variance, Seed: 1})
	p := New(g)
	s, d := gridgen.Pair(8, gridgen.Diagonal, 0)
	heap, err := p.RouteCtx(context.Background(), s, d, Options{Algorithm: Dijkstra, Frontier: search.FrontierHeap})
	if err != nil {
		t.Fatal(err)
	}
	scan, err := p.RouteCtx(context.Background(), s, d, Options{Algorithm: Dijkstra, Frontier: search.FrontierScan})
	if err != nil {
		t.Fatal(err)
	}
	if heap.Cost != scan.Cost {
		t.Errorf("frontier kinds disagree: %v vs %v", heap.Cost, scan.Cost)
	}
}

// TestCHOnBarePlannerRejected pins the Planner's CH outcome: the
// hierarchy is built and owned by route.Service, so a bare Planner
// answers Algorithm CH with an error instead of preprocessing on a
// query path.
func TestCHOnBarePlannerRejected(t *testing.T) {
	g := gridgen.MustGenerate(gridgen.Config{K: 6})
	r, err := New(g).RouteCtx(context.Background(), 0, 35, Options{Algorithm: CH})
	if err == nil || !strings.Contains(err.Error(), "route.Service") {
		t.Fatalf("CH on a bare Planner: err %v, want one naming route.Service", err)
	}
	if r.Found {
		t.Fatalf("CH on a bare Planner reported a route: %+v", r)
	}
}

func TestUnknownAlgorithmRejected(t *testing.T) {
	g := gridgen.MustGenerate(gridgen.Config{K: 4})
	p := New(g)
	if _, err := p.RouteCtx(context.Background(), 0, 5, Options{Algorithm: Algorithm(42)}); err == nil {
		t.Error("unknown algorithm accepted")
	}
}

func TestDefaultIsAStarEuclidean(t *testing.T) {
	g := gridgen.MustGenerate(gridgen.Config{K: 6})
	p := New(g)
	r, err := p.RouteCtx(context.Background(), 0, 35, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Algorithm != AStarEuclidean {
		t.Errorf("default algorithm = %v", r.Algorithm)
	}
	if !r.Found || r.Path.Len() == 0 {
		t.Error("default route not found")
	}
	if p.Graph() != g {
		t.Error("Graph() does not return the wrapped graph")
	}
}
