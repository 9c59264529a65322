package route

import (
	"context"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/gridgen"
)

func TestComputeVia(t *testing.T) {
	s := gridService(t, 6)
	stops := []graph.NodeID{
		gridgen.NodeAt(6, 0, 0),
		gridgen.NodeAt(6, 0, 5),
		gridgen.NodeAt(6, 5, 5),
	}
	r, err := s.ComputeViaCtx(context.Background(), stops, core.Options{Algorithm: core.Dijkstra})
	if err != nil {
		t.Fatal(err)
	}
	if !r.Found {
		t.Fatal("not found")
	}
	// Two legs of 5 unit edges each.
	if r.Cost != 10 {
		t.Errorf("cost = %v, want 10", r.Cost)
	}
	if !r.Path.ValidIn(s.Graph()) {
		t.Fatalf("combined path invalid: %v", r.Path.Nodes)
	}
	if r.Path.Source() != stops[0] || r.Path.Destination() != stops[2] {
		t.Errorf("endpoints %d..%d", r.Path.Source(), r.Path.Destination())
	}
	// The path passes through the middle stop.
	via := false
	for _, u := range r.Path.Nodes {
		if u == stops[1] {
			via = true
		}
	}
	if !via {
		t.Error("route skipped the intermediate stop")
	}
	if c, err := r.Path.CostIn(s.Graph()); err != nil || math.Abs(c-r.Cost) > 1e-9 {
		t.Errorf("path costs %v (%v), reported %v", c, err, r.Cost)
	}
	if r.Trace.Iterations == 0 {
		t.Error("trace not accumulated")
	}
}

func TestComputeViaRoundTripReturnsToStart(t *testing.T) {
	s := gridService(t, 5)
	a := gridgen.NodeAt(5, 0, 0)
	b := gridgen.NodeAt(5, 4, 4)
	r, err := s.ComputeViaCtx(context.Background(), []graph.NodeID{a, b, a}, core.Options{})
	if err != nil || !r.Found {
		t.Fatalf("%v found=%v", err, r.Found)
	}
	if r.Path.Source() != a || r.Path.Destination() != a {
		t.Error("round trip does not return to start")
	}
	if r.Cost != 16 { // 8 out + 8 back on a unit grid
		t.Errorf("round-trip cost %v, want 16", r.Cost)
	}
}

func TestComputeViaValidation(t *testing.T) {
	s := gridService(t, 4)
	if _, err := s.ComputeViaCtx(context.Background(), []graph.NodeID{0}, core.Options{}); err == nil {
		t.Error("single stop accepted")
	}
	if _, err := s.ComputeViaCtx(context.Background(), nil, core.Options{}); err == nil {
		t.Error("no stops accepted")
	}
	if _, err := s.ComputeViaCtx(context.Background(), []graph.NodeID{0, 99}, core.Options{}); err == nil {
		t.Error("out-of-range stop accepted")
	}
}

func TestComputeViaUnreachableLeg(t *testing.T) {
	// Disconnected graph: 0-1 and 2-3.
	b := graph.NewBuilder(4, 2)
	for i := 0; i < 4; i++ {
		b.AddNode(float64(i), 0)
	}
	b.AddEdge(0, 1, 1)
	b.AddEdge(2, 3, 1)
	s := NewService(b.MustBuild())
	r, err := s.ComputeViaCtx(context.Background(), []graph.NodeID{0, 1, 3}, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Found {
		t.Error("found a route across a disconnection")
	}
	if !math.IsInf(r.Cost, 1) {
		t.Errorf("cost = %v, want +Inf", r.Cost)
	}
}
