package graph

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// line builds the path graph 0-1-2-…-(n-1) with unit directed edges both
// ways, returning the graph.
func line(t *testing.T, n int) *Graph {
	t.Helper()
	b := NewBuilder(n, 2*(n-1))
	for i := 0; i < n; i++ {
		b.AddNode(float64(i), 0)
	}
	for i := 0; i+1 < n; i++ {
		b.AddUndirectedEdge(NodeID(i), NodeID(i+1), 1)
	}
	g, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return g
}

func TestBuilderEmptyGraph(t *testing.T) {
	g, err := NewBuilder(0, 0).Build()
	if err != nil {
		t.Fatalf("Build empty: %v", err)
	}
	if g.NumNodes() != 0 || g.NumEdges() != 0 {
		t.Errorf("empty graph has %d nodes, %d edges", g.NumNodes(), g.NumEdges())
	}
	min, max := g.Bounds()
	if min != (Point{}) || max != (Point{}) {
		t.Errorf("empty bounds = %v, %v", min, max)
	}
}

func TestBuilderCounts(t *testing.T) {
	g := line(t, 5)
	if got := g.NumNodes(); got != 5 {
		t.Errorf("NumNodes = %d, want 5", got)
	}
	if got := g.NumEdges(); got != 8 {
		t.Errorf("NumEdges = %d, want 8 (4 undirected segments)", got)
	}
}

func TestBuilderRejectsBadEdges(t *testing.T) {
	cases := []struct {
		name string
		u, v NodeID
		c    float64
	}{
		{"negative cost", 0, 1, -1},
		{"nan cost", 0, 1, math.NaN()},
		{"inf cost", 0, 1, math.Inf(1)},
		{"tail out of range", 9, 1, 1},
		{"head out of range", 0, 9, 1},
		{"negative tail", -1, 0, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := NewBuilder(2, 1)
			b.AddNode(0, 0)
			b.AddNode(1, 1)
			b.AddEdge(tc.u, tc.v, tc.c)
			if _, err := b.Build(); err == nil {
				t.Errorf("Build accepted %s", tc.name)
			}
		})
	}
}

func TestBuilderRejectsBadName(t *testing.T) {
	b := NewBuilder(1, 0)
	b.AddNode(0, 0)
	b.Name(5, "ghost")
	if _, err := b.Build(); err == nil {
		t.Error("Build accepted name on unknown node")
	}
}

func TestNeighborsOrderAndDegree(t *testing.T) {
	b := NewBuilder(4, 3)
	for i := 0; i < 4; i++ {
		b.AddNode(float64(i), 0)
	}
	b.AddEdge(0, 3, 3)
	b.AddEdge(0, 1, 1)
	b.AddEdge(0, 2, 2)
	g := b.MustBuild()

	if d := g.OutDegree(0); d != 3 {
		t.Fatalf("OutDegree(0) = %d, want 3", d)
	}
	var got []Arc
	g.Neighbors(0, func(a Arc) { got = append(got, a) })
	want := []Arc{{3, 3}, {1, 1}, {2, 2}}
	if len(got) != len(want) {
		t.Fatalf("Neighbors returned %d arcs, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("arc %d = %v, want %v (insertion order must be preserved)", i, got[i], want[i])
		}
	}
	if d := g.OutDegree(2); d != 0 {
		t.Errorf("OutDegree(2) = %d, want 0", d)
	}
}

func TestArcsMatchesNeighbors(t *testing.T) {
	g := line(t, 6)
	for u := NodeID(0); int(u) < g.NumNodes(); u++ {
		var viaCB []Arc
		g.Neighbors(u, func(a Arc) { viaCB = append(viaCB, a) })
		viaSlice := g.Arcs(u)
		if len(viaCB) != len(viaSlice) {
			t.Fatalf("node %d: Neighbors %d arcs, Arcs %d", u, len(viaCB), len(viaSlice))
		}
		for i := range viaCB {
			if viaCB[i] != viaSlice[i] {
				t.Errorf("node %d arc %d: %v vs %v", u, i, viaCB[i], viaSlice[i])
			}
		}
	}
}

func TestArcCostParallelEdgesPicksCheapest(t *testing.T) {
	b := NewBuilder(2, 2)
	b.AddNode(0, 0)
	b.AddNode(1, 0)
	b.AddEdge(0, 1, 5)
	b.AddEdge(0, 1, 2)
	g := b.MustBuild()
	c, ok := g.ArcCost(0, 1)
	if !ok || c != 2 {
		t.Errorf("ArcCost = %v,%v, want 2,true", c, ok)
	}
	if _, ok := g.ArcCost(1, 0); ok {
		t.Error("ArcCost(1,0) reported an edge that does not exist")
	}
	if _, ok := g.ArcCost(-1, 0); ok {
		t.Error("ArcCost(-1,0) reported an edge for an invalid node")
	}
}

func TestSetArcCost(t *testing.T) {
	g := line(t, 3)
	ok, err := g.SetArcCost(0, 1, 7)
	if err != nil || !ok {
		t.Fatalf("SetArcCost = %v, %v", ok, err)
	}
	if c, _ := g.ArcCost(0, 1); c != 7 {
		t.Errorf("cost after set = %v, want 7", c)
	}
	// The reverse directed edge is independent.
	if c, _ := g.ArcCost(1, 0); c != 1 {
		t.Errorf("reverse cost = %v, want 1 (must be untouched)", c)
	}
	if ok, err := g.SetArcCost(0, 2, 1); err != nil || ok {
		t.Errorf("SetArcCost on missing edge = %v, %v; want false, nil", ok, err)
	}
	if _, err := g.SetArcCost(0, 1, -3); err == nil {
		t.Error("SetArcCost accepted negative cost")
	}
	if _, err := g.SetArcCost(99, 1, 3); err == nil {
		t.Error("SetArcCost accepted unknown node")
	}
}

func TestScaleArcCost(t *testing.T) {
	g := line(t, 3)
	if ok, err := g.ScaleArcCost(1, 2, 2.5); err != nil || !ok {
		t.Fatalf("ScaleArcCost = %v, %v", ok, err)
	}
	if c, _ := g.ArcCost(1, 2); c != 2.5 {
		t.Errorf("scaled cost = %v, want 2.5", c)
	}
	if _, err := g.ScaleArcCost(1, 2, -1); err == nil {
		t.Error("ScaleArcCost accepted negative factor")
	}
}

// TestScaleFactorMustBePositive: a factor of 0 would erase an edge's cost
// for good under compounding, so ApplyBatch and ScaleArcCost refuse it
// (and NaN) while a Set entry may still make an edge free.
func TestScaleFactorMustBePositive(t *testing.T) {
	g := line(t, 3)
	v0 := g.CostVersion()
	for _, f := range []float64{0, math.Copysign(0, -1), math.NaN()} {
		if _, err := g.ApplyBatch([]EdgeCostChange{{Tail: 0, Head: 1, Cost: f, Scale: true}}); err == nil {
			t.Errorf("ApplyBatch accepted scale factor %v", f)
		}
		if _, err := g.ScaleArcCost(0, 1, f); err == nil {
			t.Errorf("ScaleArcCost accepted factor %v", f)
		}
	}
	if c, _ := g.ArcCost(0, 1); c != 1 || g.CostVersion() != v0 {
		t.Errorf("after rejected factors: cost %v version %d, want 1 and %d", c, g.CostVersion(), v0)
	}
	if _, err := g.ApplyBatch([]EdgeCostChange{{Tail: 0, Head: 1, Cost: 0}}); err != nil {
		t.Errorf("ApplyBatch refused a zero set cost: %v", err)
	}
}

func TestApplyBatchBumpsVersionOnce(t *testing.T) {
	g := line(t, 4)
	v0 := g.CostVersion()
	n, err := g.ApplyBatch([]EdgeCostChange{
		{Tail: 0, Head: 1, Cost: 7},
		{Tail: 1, Head: 2, Cost: 2, Scale: true},
		{Tail: 2, Head: 3, Cost: 0.5},
	})
	if err != nil || n != 3 {
		t.Fatalf("ApplyBatch = %d, %v; want 3 applied", n, err)
	}
	if got := g.CostVersion(); got != v0+1 {
		t.Errorf("version after 3-edge batch = %d, want %d (one bump per batch)", got, v0+1)
	}
	if c, _ := g.ArcCost(0, 1); c != 7 {
		t.Errorf("set cost = %v, want 7", c)
	}
	if c, _ := g.ArcCost(1, 2); c != 2 {
		t.Errorf("scaled cost = %v, want 2", c)
	}
	if c, _ := g.ArcCost(1, 0); c != 1 {
		t.Errorf("untargeted reverse edge = %v, want 1", c)
	}
}

func TestApplyBatchValidatesBeforeApplying(t *testing.T) {
	g := line(t, 3)
	v0 := g.CostVersion()
	// The second entry is invalid: nothing from the batch may land.
	if _, err := g.ApplyBatch([]EdgeCostChange{
		{Tail: 0, Head: 1, Cost: 9},
		{Tail: 0, Head: 1, Cost: -1},
	}); err == nil {
		t.Fatal("ApplyBatch accepted a negative cost")
	}
	if c, _ := g.ArcCost(0, 1); c != 1 {
		t.Errorf("cost after rejected batch = %v, want untouched 1", c)
	}
	if g.CostVersion() != v0 {
		t.Errorf("version bumped by a rejected batch")
	}
	if _, err := g.ApplyBatch([]EdgeCostChange{{Tail: 0, Head: 99, Cost: 1}}); err == nil {
		t.Fatal("ApplyBatch accepted an unknown node")
	}
	// Entries that match no edge are not an error, just not counted; a
	// batch applying nothing leaves the version alone.
	n, err := g.ApplyBatch([]EdgeCostChange{{Tail: 0, Head: 2, Cost: 1}})
	if err != nil || n != 0 {
		t.Fatalf("no-match batch = %d, %v; want 0, nil", n, err)
	}
	if g.CostVersion() != v0 {
		t.Errorf("no-op batch bumped the version")
	}
}

// TestApplyBatchRejectsNonFiniteResults covers costs that are only bad
// once compounded: factors 1e300 and 1e300 (or a large set cost and a
// factor) on a cost-5 edge pass the per-entry check but overflow to +Inf.
// Infinite costs and factors are refused outright, and so is the factor
// 0 that ends the first batch, on its own. A rejected batch changes
// nothing.
func TestApplyBatchRejectsNonFiniteResults(t *testing.T) {
	g := line(t, 3)
	if _, err := g.ApplyBatch([]EdgeCostChange{{Tail: 0, Head: 1, Cost: 5}}); err != nil {
		t.Fatal(err)
	}
	v0 := g.CostVersion()
	for name, batch := range map[string][]EdgeCostChange{
		"compounded overflow then zero": {
			{Tail: 1, Head: 2, Cost: 4},
			{Tail: 0, Head: 1, Cost: 1e300, Scale: true},
			{Tail: 0, Head: 1, Cost: 1e300, Scale: true},
			{Tail: 0, Head: 1, Cost: 0, Scale: true},
		},
		"compounded overflow":  {{Tail: 0, Head: 1, Cost: 1e300, Scale: true}, {Tail: 0, Head: 1, Cost: 1e10, Scale: true}},
		"overflow after a set": {{Tail: 0, Head: 1, Cost: 1e300}, {Tail: 0, Head: 1, Cost: 1e10, Scale: true}},
		"infinite cost":        {{Tail: 0, Head: 1, Cost: math.Inf(1)}},
		"infinite factor":      {{Tail: 0, Head: 1, Cost: math.Inf(1), Scale: true}},
	} {
		if _, err := g.ApplyBatch(batch); err == nil {
			t.Errorf("%s: batch accepted", name)
		}
		if c, ok := g.ArcCost(0, 1); !ok || c != 5 {
			t.Errorf("%s: cost after rejected batch = %v, %v; want untouched 5", name, c, ok)
		}
		if c, _ := g.ArcCost(1, 2); c != 1 {
			t.Errorf("%s: cost of the batch's valid entry = %v, want untouched 1", name, c)
		}
		if g.CostVersion() != v0 {
			t.Errorf("%s: version bumped by a rejected batch", name)
		}
	}
	// Large factors whose product stays finite still compound.
	if _, err := g.ApplyBatch([]EdgeCostChange{
		{Tail: 0, Head: 1, Cost: 1e300, Scale: true},
		{Tail: 0, Head: 1, Cost: 1e-300, Scale: true},
	}); err != nil {
		t.Fatalf("finite compounded batch rejected: %v", err)
	}
	if c, _ := g.ArcCost(0, 1); math.Abs(c-5) > 1e-9 {
		t.Errorf("compounded cost = %v, want 5", c)
	}
}

// TestScaleRefusesUnderflowToZero: factors 1e-200 and 1e-200 are each
// positive, but their product underflows a cost-1 edge to 0, as
// irreversible as factor 0. ApplyBatch refuses the product within one
// batch and across two, ScaleArcCost across two calls, and a refusal
// changes nothing. An edge that is already free may still be scaled.
func TestScaleRefusesUnderflowToZero(t *testing.T) {
	tiny := EdgeCostChange{Tail: 0, Head: 1, Cost: 1e-200, Scale: true}
	check := func(t *testing.T, g *Graph, v0 uint64) {
		t.Helper()
		if c, _ := g.ArcCost(0, 1); c != 1e-200 || g.CostVersion() != v0 {
			t.Errorf("after the refusal: cost %v version %d, want 1e-200 and %d", c, g.CostVersion(), v0)
		}
	}
	t.Run("one batch", func(t *testing.T) {
		g := line(t, 3)
		v0 := g.CostVersion()
		if _, err := g.ApplyBatch([]EdgeCostChange{tiny, tiny}); err == nil {
			t.Fatal("ApplyBatch accepted a batch that underflows cost 1 to 0")
		}
		if c, _ := g.ArcCost(0, 1); c != 1 || g.CostVersion() != v0 {
			t.Errorf("after the refusal: cost %v version %d, want 1 and %d", c, g.CostVersion(), v0)
		}
	})
	t.Run("two batches", func(t *testing.T) {
		g := line(t, 3)
		if _, err := g.ApplyBatch([]EdgeCostChange{tiny}); err != nil {
			t.Fatal(err)
		}
		v1 := g.CostVersion()
		if _, err := g.ApplyBatch([]EdgeCostChange{{Tail: 1, Head: 2, Cost: 2, Scale: true}, tiny}); err == nil {
			t.Fatal("ApplyBatch accepted a factor that underflows cost 1e-200 to 0")
		}
		check(t, g, v1)
		if c, _ := g.ArcCost(1, 2); c != 1 {
			t.Errorf("the refused batch's valid entry landed: cost %v, want 1", c)
		}
	})
	t.Run("ScaleArcCost", func(t *testing.T) {
		g := line(t, 3)
		if _, err := g.ScaleArcCost(0, 1, 1e-200); err != nil {
			t.Fatal(err)
		}
		v1 := g.CostVersion()
		if _, err := g.ScaleArcCost(0, 1, 1e-200); err == nil {
			t.Fatal("ScaleArcCost accepted a factor that underflows cost 1e-200 to 0")
		}
		check(t, g, v1)
	})
	t.Run("free edge", func(t *testing.T) {
		g := line(t, 3)
		if _, err := g.ApplyBatch([]EdgeCostChange{{Tail: 0, Head: 1, Cost: 0}, tiny}); err != nil {
			t.Errorf("ApplyBatch refused to scale a free edge: %v", err)
		}
		if _, err := g.ScaleArcCost(0, 1, 1e-200); err != nil {
			t.Errorf("ScaleArcCost refused to scale a free edge: %v", err)
		}
	})
}

func TestApplyBatchInvalidatesReverseViewOnce(t *testing.T) {
	g := line(t, 4)
	r0 := g.ReverseView()
	if _, err := g.ApplyBatch([]EdgeCostChange{
		{Tail: 0, Head: 1, Cost: 4},
		{Tail: 1, Head: 2, Cost: 5},
	}); err != nil {
		t.Fatal(err)
	}
	r1 := g.ReverseView()
	if r1 == r0 {
		t.Fatal("ReverseView not invalidated by ApplyBatch")
	}
	if c, _ := r1.ArcCost(1, 0); c != 4 {
		t.Errorf("reverse view cost = %v, want 4", c)
	}
	if g.ReverseView() != r1 {
		t.Error("ReverseView rebuilt again without an intervening mutation")
	}
}

func TestMinAndTotalCost(t *testing.T) {
	b := NewBuilder(3, 2)
	b.AddNode(0, 0)
	b.AddNode(1, 0)
	b.AddNode(2, 0)
	b.AddEdge(0, 1, 3)
	b.AddEdge(1, 2, 0.5)
	g := b.MustBuild()
	if m := g.MinArcCost(); m != 0.5 {
		t.Errorf("MinArcCost = %v, want 0.5", m)
	}
	if s := g.TotalCost(); s != 3.5 {
		t.Errorf("TotalCost = %v, want 3.5", s)
	}
	empty := NewBuilder(0, 0).MustBuild()
	if m := empty.MinArcCost(); !math.IsInf(m, 1) {
		t.Errorf("MinArcCost of empty graph = %v, want +Inf", m)
	}
}

func TestNamesAndLookup(t *testing.T) {
	b := NewBuilder(2, 0)
	a := b.AddNode(0, 0)
	c := b.AddNode(5, 5)
	b.Name(a, "A")
	b.Name(c, "C")
	g := b.MustBuild()

	if id, ok := g.Lookup("A"); !ok || id != a {
		t.Errorf("Lookup(A) = %v,%v", id, ok)
	}
	if _, ok := g.Lookup("Z"); ok {
		t.Error("Lookup(Z) found a ghost")
	}
	if n := g.Name(c); n != "C" {
		t.Errorf("Name(c) = %q, want C", n)
	}
	m := g.NamedNodes()
	if len(m) != 2 {
		t.Fatalf("NamedNodes has %d entries, want 2", len(m))
	}
	m["A"] = 99 // mutating the copy must not affect the graph
	if id, _ := g.Lookup("A"); id != a {
		t.Error("NamedNodes returned a live reference")
	}
}

func TestBounds(t *testing.T) {
	b := NewBuilder(3, 0)
	b.AddNode(-2, 7)
	b.AddNode(4, -1)
	b.AddNode(0, 0)
	g := b.MustBuild()
	min, max := g.Bounds()
	if min != (Point{X: -2, Y: -1}) || max != (Point{X: 4, Y: 7}) {
		t.Errorf("Bounds = %v, %v", min, max)
	}
}

func TestCloneIsDeep(t *testing.T) {
	g := line(t, 4)
	c := g.Clone()
	if _, err := c.SetArcCost(0, 1, 42); err != nil {
		t.Fatal(err)
	}
	if cost, _ := g.ArcCost(0, 1); cost != 1 {
		t.Errorf("original cost changed to %v after mutating clone", cost)
	}
	if cost, _ := c.ArcCost(0, 1); cost != 42 {
		t.Errorf("clone cost = %v, want 42", cost)
	}
}

func TestEdgesEnumeration(t *testing.T) {
	g := line(t, 3)
	edges := g.Edges()
	if len(edges) != g.NumEdges() {
		t.Fatalf("Edges returned %d, want %d", len(edges), g.NumEdges())
	}
	// Every enumerated edge must be queryable.
	for _, e := range edges {
		if _, ok := g.ArcCost(e.Tail, e.Head); !ok {
			t.Errorf("enumerated edge (%d,%d) not found by ArcCost", e.Tail, e.Head)
		}
	}
}

func TestPointDistances(t *testing.T) {
	p := Point{0, 0}
	q := Point{3, 4}
	if d := p.EuclideanDistance(q); math.Abs(d-5) > 1e-12 {
		t.Errorf("euclidean = %v, want 5", d)
	}
	if d := p.ManhattanDistance(q); d != 7 {
		t.Errorf("manhattan = %v, want 7", d)
	}
	// Symmetry.
	if p.EuclideanDistance(q) != q.EuclideanDistance(p) {
		t.Error("euclidean distance not symmetric")
	}
	if p.ManhattanDistance(q) != q.ManhattanDistance(p) {
		t.Error("manhattan distance not symmetric")
	}
}

// Property: manhattan ≥ euclidean ≥ 0 for all coordinate pairs, and both are
// zero iff the points coincide (up to float representability).
func TestDistanceProperty(t *testing.T) {
	f := func(ax, ay, bx, by float64) bool {
		if math.IsNaN(ax) || math.IsNaN(ay) || math.IsNaN(bx) || math.IsNaN(by) ||
			math.IsInf(ax, 0) || math.IsInf(ay, 0) || math.IsInf(bx, 0) || math.IsInf(by, 0) {
			return true // out of scope
		}
		p, q := Point{ax, ay}, Point{bx, by}
		e, m := p.EuclideanDistance(q), p.ManhattanDistance(q)
		if math.IsInf(m, 1) || math.IsInf(e, 1) {
			return true // overflow territory, out of scope
		}
		return e >= 0 && m >= e-1e-9*math.Abs(m)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPathBasics(t *testing.T) {
	g := line(t, 5)
	p := Path{Nodes: []NodeID{0, 1, 2, 3}}
	if p.Len() != 3 {
		t.Errorf("Len = %d, want 3", p.Len())
	}
	if p.Source() != 0 || p.Destination() != 3 {
		t.Errorf("endpoints = %d,%d", p.Source(), p.Destination())
	}
	if !p.ValidIn(g) {
		t.Error("valid path reported invalid")
	}
	c, err := p.CostIn(g)
	if err != nil || c != 3 {
		t.Errorf("CostIn = %v, %v; want 3, nil", c, err)
	}

	bad := Path{Nodes: []NodeID{0, 2}}
	if bad.ValidIn(g) {
		t.Error("0->2 reported valid on a line graph")
	}
	if _, err := bad.CostIn(g); err == nil {
		t.Error("CostIn accepted a non-path")
	}

	var empty Path
	if empty.Len() != 0 || empty.Source() != Invalid || empty.Destination() != Invalid {
		t.Error("empty path invariants violated")
	}
	if !empty.ValidIn(g) {
		t.Error("empty path must be valid")
	}
	if empty.String() != "(empty path)" {
		t.Errorf("empty String = %q", empty.String())
	}
	if s := (Path{Nodes: []NodeID{4, 2}}).String(); s != "4 -> 2" {
		t.Errorf("String = %q", s)
	}
}

func TestBuildPath(t *testing.T) {
	// Tree: 0 -> 1 -> 2, 0 -> 3.
	prev := []NodeID{Invalid, 0, 1, 0}
	p := BuildPath(prev, 0, 2)
	want := []NodeID{0, 1, 2}
	if len(p.Nodes) != len(want) {
		t.Fatalf("BuildPath = %v, want %v", p.Nodes, want)
	}
	for i := range want {
		if p.Nodes[i] != want[i] {
			t.Fatalf("BuildPath = %v, want %v", p.Nodes, want)
		}
	}
	if p := BuildPath(prev, 0, 0); p.Len() != 0 || p.Source() != 0 {
		t.Errorf("self path = %v", p.Nodes)
	}
	// Unreached destination.
	prev2 := []NodeID{Invalid, Invalid}
	if p := BuildPath(prev2, 0, 1); len(p.Nodes) != 0 {
		t.Errorf("unreached BuildPath = %v, want empty", p.Nodes)
	}
	// Out-of-range destination.
	if p := BuildPath(prev2, 0, 10); len(p.Nodes) != 0 {
		t.Errorf("out-of-range BuildPath = %v, want empty", p.Nodes)
	}
	// Corrupted predecessor array with a cycle (not through the source)
	// must not loop forever.
	cyc := []NodeID{Invalid, 2, 1}
	if p := BuildPath(cyc, 0, 2); len(p.Nodes) != 0 {
		t.Errorf("cyclic BuildPath = %v, want empty", p.Nodes)
	}
	// Destination whose chain does not reach the requested source.
	orphan := []NodeID{Invalid, Invalid, 1}
	if p := BuildPath(orphan, 0, 2); len(p.Nodes) != 0 {
		t.Errorf("orphan BuildPath = %v, want empty", p.Nodes)
	}
}

// Property: for random trees, BuildPath returns a path whose first node is
// the source, last node is the destination, and every hop follows prev.
func TestBuildPathProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		n := 2 + rng.Intn(40)
		prev := make([]NodeID, n)
		prev[0] = Invalid
		for i := 1; i < n; i++ {
			prev[i] = NodeID(rng.Intn(i)) // parent strictly earlier: a tree rooted at 0
		}
		dest := NodeID(rng.Intn(n))
		p := BuildPath(prev, 0, dest)
		if p.Source() != 0 || p.Destination() != dest {
			t.Fatalf("trial %d: endpoints %d..%d, want 0..%d", trial, p.Source(), p.Destination(), dest)
		}
		for i := 1; i < len(p.Nodes); i++ {
			if prev[p.Nodes[i]] != p.Nodes[i-1] {
				t.Fatalf("trial %d: hop %d->%d contradicts prev", trial, p.Nodes[i-1], p.Nodes[i])
			}
		}
	}
}

func TestGraphString(t *testing.T) {
	g := line(t, 3)
	if s := g.String(); s != "graph(3 nodes, 4 edges)" {
		t.Errorf("String = %q", s)
	}
}
