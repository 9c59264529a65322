package route

import (
	"math"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/gridgen"
	"repro/internal/mpls"
)

func TestDirectionsStraightLine(t *testing.T) {
	s := gridService(t, 6)
	// Along the bottom row: east, no turns.
	p := graph.Path{Nodes: []graph.NodeID{0, 1, 2, 3, 4, 5}}
	ins, err := s.Snapshot().Directions(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(ins) != 2 {
		t.Fatalf("instructions: %v", ins)
	}
	dep := ins[0]
	if dep.Action != "depart" || dep.Heading != "east" || dep.Segments != 5 {
		t.Errorf("depart = %+v", dep)
	}
	if math.Abs(dep.Distance-5) > 1e-9 {
		t.Errorf("distance = %v", dep.Distance)
	}
	if ins[1].Action != "arrive" || ins[1].At != 5 {
		t.Errorf("arrive = %+v", ins[1])
	}
}

func TestDirectionsLShape(t *testing.T) {
	const k = 6
	s := gridService(t, k)
	// East along the bottom row, then north up the last column: one left
	// turn (grid rows grow northward with our convention y = row).
	nodes := []graph.NodeID{}
	for col := 0; col < k; col++ {
		nodes = append(nodes, gridgen.NodeAt(k, 0, col))
	}
	for row := 1; row < k; row++ {
		nodes = append(nodes, gridgen.NodeAt(k, row, k-1))
	}
	ins, err := s.Snapshot().Directions(graph.Path{Nodes: nodes})
	if err != nil {
		t.Fatal(err)
	}
	if len(ins) != 3 {
		t.Fatalf("instructions: %v", ins)
	}
	if ins[0].Heading != "east" {
		t.Errorf("depart heading %q", ins[0].Heading)
	}
	if ins[1].Action != "turn left" || ins[1].Heading != "north" {
		t.Errorf("turn = %+v", ins[1])
	}
	if ins[1].At != gridgen.NodeAt(k, 0, k-1) {
		t.Errorf("turn at %d", ins[1].At)
	}
}

func TestDirectionsRightAndUTurn(t *testing.T) {
	// Custom geometry: east, then south (right turn), then back west-north
	// (u-turn-ish).
	b := graph.NewBuilder(4, 3)
	b.AddNode(0, 0)
	b.AddNode(1, 0)
	b.AddNode(1, -1)
	b.AddNode(1.05, 0.05) // nearly reversing the previous hop
	b.AddEdge(0, 1, 1)
	b.AddEdge(1, 2, 1)
	b.AddEdge(2, 3, 1.1)
	g := b.MustBuild()
	s := NewService(g)
	ins, err := s.Snapshot().Directions(graph.Path{Nodes: []graph.NodeID{0, 1, 2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	if len(ins) != 4 {
		t.Fatalf("instructions: %v", ins)
	}
	if ins[1].Action != "turn right" || ins[1].Heading != "south" {
		t.Errorf("expected right turn south, got %+v", ins[1])
	}
	if ins[2].Action != "u-turn" {
		t.Errorf("expected u-turn, got %+v", ins[2])
	}
}

func TestDirectionsValidation(t *testing.T) {
	s := gridService(t, 4)
	if _, err := s.Snapshot().Directions(graph.Path{Nodes: []graph.NodeID{0, 9}}); err == nil {
		t.Error("non-path accepted")
	}
	if _, err := s.Snapshot().Directions(graph.Path{}); err == nil {
		t.Error("empty path accepted")
	}
	ins, err := s.Snapshot().Directions(graph.Path{Nodes: []graph.NodeID{3}})
	if err != nil || len(ins) != 1 || ins[0].Action != "arrive" {
		t.Errorf("single-node path: %v %v", ins, err)
	}
}

func TestDirectionsCoverRealRoute(t *testing.T) {
	s := NewService(mpls.MustGenerate(mpls.Config{}))
	r, err := s.ComputeByName("C", "D", core.Options{})
	if err != nil || !r.Found {
		t.Fatalf("route: %v", err)
	}
	ins, err := s.Snapshot().Directions(r.Path)
	if err != nil {
		t.Fatal(err)
	}
	if len(ins) < 3 {
		t.Fatalf("real route produced %d instructions", len(ins))
	}
	// Distances must sum to the route's geometric length.
	var total float64
	var segs int
	for _, in := range ins {
		total += in.Distance
		segs += in.Segments
	}
	ev, _ := s.Evaluate(r.Path)
	if math.Abs(total-ev.Distance) > 1e-9 {
		t.Errorf("instruction distances sum to %v, route length %v", total, ev.Distance)
	}
	if segs != r.Path.Len() {
		t.Errorf("instruction segments sum to %d, route has %d", segs, r.Path.Len())
	}
	if ins[0].Action != "depart" || ins[len(ins)-1].Action != "arrive" {
		t.Error("missing depart/arrive bookends")
	}
	out := FormatDirections(ins)
	if !strings.Contains(out, "1. depart") || !strings.Contains(out, "arrive at node") {
		t.Errorf("formatted directions:\n%s", out)
	}
}

func TestCompassAndTurnHelpers(t *testing.T) {
	compass := map[float64]string{
		0: "east", 45: "northeast", 90: "north", 135: "northwest",
		180: "west", -180: "west", -90: "south", -45: "southeast", 360: "east",
	}
	for deg, want := range compass {
		if got := compass8(deg); got != want {
			t.Errorf("compass8(%v) = %q, want %q", deg, got, want)
		}
	}
	turns := map[float64]string{
		0: "continue", 10: "continue", -20: "continue",
		40: "bear left", -40: "bear right",
		90: "turn left", -90: "turn right",
		150: "sharp left", -150: "sharp right",
		180: "u-turn", -179: "u-turn",
	}
	for delta, want := range turns {
		if got := classifyTurn(delta); got != want {
			t.Errorf("classifyTurn(%v) = %q, want %q", delta, got, want)
		}
	}
	if d := turnDelta(170, -170); math.Abs(d-20) > 1e-9 {
		t.Errorf("turnDelta wraparound = %v, want 20", d)
	}
	if d := turnDelta(-170, 170); math.Abs(d+20) > 1e-9 {
		t.Errorf("turnDelta wraparound = %v, want -20", d)
	}
}
