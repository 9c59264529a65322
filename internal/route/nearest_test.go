package route

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/gridgen"
	"repro/internal/mpls"
)

func TestNearestOnGrid(t *testing.T) {
	s := gridService(t, 5)
	u, ok := s.Nearest(2.2, 3.4)
	if !ok {
		t.Fatal("no road node found")
	}
	if u != gridgen.NodeAt(5, 3, 2) { // coords are (col, row) = (x, y)
		t.Errorf("Nearest(2.2, 3.4) = %d, want node at row 3 col 2", u)
	}
	// Exactly on a node.
	u, _ = s.Nearest(0, 0)
	if u != 0 {
		t.Errorf("Nearest(0,0) = %d", u)
	}
	// Far outside the map snaps to the closest corner.
	u, _ = s.Nearest(100, 100)
	if u != gridgen.NodeAt(5, 4, 4) {
		t.Errorf("Nearest(100,100) = %d", u)
	}
}

func TestNearestSkipsIsolatedNodes(t *testing.T) {
	// Lake nodes have no roads; snapping near a lake centre must return a
	// shoreline road node, not the underwater one.
	s := NewService(mpls.MustGenerate(mpls.Config{}))
	u, ok := s.Nearest(6, 6) // lake centre
	if !ok {
		t.Fatal("no road node")
	}
	if s.Graph().OutDegree(u) == 0 {
		t.Errorf("Nearest snapped to isolated node %d", u)
	}
}

func TestNearestEmptyNetwork(t *testing.T) {
	s := NewService(graph.NewBuilder(0, 0).MustBuild())
	if _, ok := s.Nearest(0, 0); ok {
		t.Error("empty network returned a node")
	}
	// A network of only isolated nodes has no roads either.
	b := graph.NewBuilder(2, 0)
	b.AddNode(0, 0)
	b.AddNode(1, 1)
	s2 := NewService(b.MustBuild())
	if _, ok := s2.Nearest(0, 0); ok {
		t.Error("isolated-only network returned a node")
	}
}

// The end-to-end ATIS flow: snap a position, snap a destination, route.
func TestSnapAndRoute(t *testing.T) {
	s := NewService(mpls.MustGenerate(mpls.Config{}))
	from, ok := s.Nearest(1.8, 2.1) // near landmark C
	if !ok {
		t.Fatal("snap failed")
	}
	to, ok := s.Nearest(30.2, 29.8) // near landmark D
	if !ok {
		t.Fatal("snap failed")
	}
	r, err := s.ComputeCtx(context.Background(), from, to, core.Options{})
	if err != nil || !r.Found {
		t.Fatalf("route: %v found=%v", err, r.Found)
	}
}
