package mpls

import (
	"context"
	"math"
	"testing"

	"repro/internal/estimator"
	"repro/internal/graph"
	"repro/internal/search"
)

func defaultMap(t *testing.T) *graph.Graph {
	t.Helper()
	g, err := Generate(Config{})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestPaperStatistics(t *testing.T) {
	g := defaultMap(t)
	if g.NumNodes() != 1089 {
		t.Errorf("nodes = %d, want 1089", g.NumNodes())
	}
	// The paper reports 3300 edges; the generator lands within a few
	// percent (the spanning forest floor and one-way conversions quantise
	// the exact count).
	if e := g.NumEdges(); e < 3150 || e > 3450 {
		t.Errorf("edges = %d, want ≈3300", e)
	}
}

func TestDeterminism(t *testing.T) {
	a := MustGenerate(Config{})
	b := MustGenerate(Config{})
	if a.NumEdges() != b.NumEdges() {
		t.Fatal("same seed produced different edge counts")
	}
	ea, eb := a.Edges(), b.Edges()
	for i := range ea {
		if ea[i] != eb[i] {
			t.Fatalf("edge %d differs: %+v vs %+v", i, ea[i], eb[i])
		}
	}
	c := MustGenerate(Config{Seed: 7})
	if c.NumEdges() == a.NumEdges() {
		// Edge counts may coincide; compare a sample of coordinates too.
		same := true
		for u := graph.NodeID(0); u < 50; u++ {
			if a.Point(u) != c.Point(u) {
				same = false
				break
			}
		}
		if same {
			t.Error("different seeds produced identical maps")
		}
	}
}

func TestLandmarksExistAndConnected(t *testing.T) {
	g := defaultMap(t)
	labels := []string{"A", "B", "C", "D", "E", "F", "G"}
	ids := map[string]graph.NodeID{}
	for _, l := range labels {
		id, ok := g.Lookup(l)
		if !ok {
			t.Fatalf("landmark %s missing", l)
		}
		ids[l] = id
	}
	// Every Table 8 route must exist in both directions (the network is
	// usable even with one-way freeways).
	for _, pp := range PaperPaths() {
		r, err := search.Dijkstra(g, ids[pp.From], ids[pp.To])
		if err != nil {
			t.Fatal(err)
		}
		if !r.Found {
			t.Errorf("%s: no route", pp.Name)
		}
		back, err := search.Dijkstra(g, ids[pp.To], ids[pp.From])
		if err != nil {
			t.Fatal(err)
		}
		if !back.Found {
			t.Errorf("%s reversed: no route", pp.Name)
		}
	}
}

func TestCostsAreEuclideanDistances(t *testing.T) {
	g := defaultMap(t)
	for _, e := range g.Edges() {
		want := g.Point(e.Tail).EuclideanDistance(g.Point(e.Head))
		if math.Abs(e.Cost-want) > 1e-9 {
			t.Fatalf("edge (%d,%d): cost %v, distance %v", e.Tail, e.Head, e.Cost, want)
		}
	}
}

func TestOneWayFreewayExists(t *testing.T) {
	g := defaultMap(t)
	oneWay := 0
	for _, e := range g.Edges() {
		if _, back := g.ArcCost(e.Head, e.Tail); !back {
			oneWay++
		}
	}
	if oneWay < 30 {
		t.Errorf("only %d one-way edges; the freeway pair should contribute ≈64", oneWay)
	}
}

func TestLakesHaveNoRoads(t *testing.T) {
	g := defaultMap(t)
	for row := 0; row < Side; row++ {
		for col := 0; col < Side; col++ {
			if !inLake(float64(col), float64(row)) {
				continue
			}
			u := graph.NodeID(row*Side + col)
			if g.OutDegree(u) != 0 {
				t.Fatalf("lake node (%d,%d) has %d roads", row, col, g.OutDegree(u))
			}
		}
	}
}

func TestRiverCrossedOnlyAtBridges(t *testing.T) {
	g := defaultMap(t)
	crossings := map[int]bool{}
	for _, e := range g.Edges() {
		cr, cc := int(e.Tail)/Side, int(e.Tail)%Side
		hr, hc := int(e.Head)/Side, int(e.Head)%Side
		s1 := riverSide(float64(cc), float64(cr))
		s2 := riverSide(float64(hc), float64(hr))
		if s1 != 0 && s2 != 0 && s1 != s2 {
			if !bridges[cc] && !bridges[hc] {
				t.Fatalf("edge (%d,%d)-(%d,%d) crosses the river off-bridge", cr, cc, hr, hc)
			}
			crossings[cc] = true
		}
	}
	if len(crossings) == 0 {
		t.Error("no bridges cross the river: D would be unreachable")
	}
}

// The paper's Section 5.3 observation: manhattan distance is NOT an
// underestimate on the Minneapolis map, so A* v3 loses its optimality
// guarantee there.
func TestManhattanInadmissibleOnRoadMap(t *testing.T) {
	g := defaultMap(t)
	d, _ := g.Lookup("D")
	violations := search.VerifyAdmissible(g, estimator.Manhattan(), d, 1e-9)
	if len(violations) == 0 {
		t.Error("manhattan admissible on the road map; the paper says it must not be")
	}
	// Euclidean remains admissible: costs are euclidean distances.
	if v := search.VerifyAdmissible(g, estimator.Euclidean(), d, 1e-9); len(v) != 0 {
		t.Errorf("euclidean inadmissible: %v", v[0])
	}
}

// The downtown core is rotated: some edges in the centre are far from
// axis-parallel.
func TestDowntownRotation(t *testing.T) {
	g := defaultMap(t)
	rotated := 0
	for _, e := range g.Edges() {
		p, q := g.Point(e.Tail), g.Point(e.Head)
		dx, dy := math.Abs(p.X-q.X), math.Abs(p.Y-q.Y)
		// Axis-parallel edges have one component near zero; rotated
		// downtown edges have both clearly nonzero.
		if dx > 0.3 && dy > 0.3 {
			rotated++
		}
	}
	if rotated < 50 {
		t.Errorf("only %d clearly-diagonal edges; downtown rotation missing", rotated)
	}
}

// Table 8's qualitative structure: the two diagonals are long (hundreds of
// Dijkstra iterations), the two short pairs small, and A* beats Dijkstra
// everywhere with the gap largest on short paths.
func TestTable8Regimes(t *testing.T) {
	g := defaultMap(t)
	iters := map[string]int{}
	for _, pp := range PaperPaths() {
		from, _ := g.Lookup(pp.From)
		to, _ := g.Lookup(pp.To)
		r, err := search.Dijkstra(g, from, to)
		if err != nil || !r.Found {
			t.Fatalf("%s: %v found=%v", pp.Name, err, r.Found)
		}
		iters[pp.Name] = r.Trace.Iterations

		ast, err := search.AStarCtx(context.Background(), g, from, to, estimator.Euclidean())
		if err != nil {
			t.Fatal(err)
		}
		if ast.Trace.Iterations > r.Trace.Iterations {
			t.Errorf("%s: A* %d > Dijkstra %d", pp.Name, ast.Trace.Iterations, r.Trace.Iterations)
		}
	}
	if iters["A to B"] < 400 || iters["C to D"] < 400 {
		t.Errorf("diagonals too easy: %v (paper: ≈1058 and 1006)", iters)
	}
	if iters["G to D"] > 400 {
		t.Errorf("G to D explored %d nodes; should be a short-path regime (paper: 105)", iters["G to D"])
	}
}

func TestNearestDryAvoidsLakes(t *testing.T) {
	// Request a node in the middle of a lake: the helper must return a dry
	// neighbour.
	u := nearestDry(6, 6)
	r, c := int(u)/Side, int(u)%Side
	if inLake(float64(c), float64(r)) {
		t.Errorf("nearestDry(6,6) returned lake node (%d,%d)", r, c)
	}
}

func TestTargetEdgesHonored(t *testing.T) {
	small := MustGenerate(Config{TargetEdges: 2800})
	if e := small.NumEdges(); e > 2900 {
		t.Errorf("TargetEdges 2800 produced %d edges", e)
	}
	// The spanning forest sets a floor; asking for too few clamps there.
	floor := MustGenerate(Config{TargetEdges: 100})
	if e := floor.NumEdges(); e < 1000 {
		t.Errorf("sparsification broke the spanning forest: %d edges", e)
	}
}
