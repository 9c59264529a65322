package route

import (
	"context"
	"math"
	"testing"

	"repro/internal/graph"
	"repro/internal/gridgen"
	"repro/internal/search"
)

func TestWithinBasics(t *testing.T) {
	g := gridgen.MustGenerate(gridgen.Config{K: 7}) // unit costs
	center := gridgen.NodeAt(7, 3, 3)
	reach, err := search.WithinCtx(context.Background(), g, center, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Manhattan ball of radius 2 in an infinite grid has 13 nodes; the 7×7
	// grid contains it fully around the centre.
	if len(reach) != 13 {
		t.Errorf("|ball(2)| = %d, want 13", len(reach))
	}
	if reach[center] != 0 {
		t.Errorf("centre cost %v", reach[center])
	}
	for u, c := range reach {
		if c > 2 {
			t.Errorf("node %d at cost %v exceeds budget", u, c)
		}
		// Cross-check against full Dijkstra.
		r, _ := search.Dijkstra(g, center, u)
		if math.Abs(r.Cost-c) > 1e-12 {
			t.Errorf("node %d: within cost %v, dijkstra %v", u, c, r.Cost)
		}
	}
}

func TestWithinZeroBudget(t *testing.T) {
	g := gridgen.MustGenerate(gridgen.Config{K: 4})
	reach, err := search.WithinCtx(context.Background(), g, 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(reach) != 1 || reach[5] != 0 {
		t.Errorf("zero budget reach = %v", reach)
	}
}

func TestWithinValidation(t *testing.T) {
	g := gridgen.MustGenerate(gridgen.Config{K: 4})
	if _, err := search.WithinCtx(context.Background(), g, -1, 3); err == nil {
		t.Error("bad source accepted")
	}
	if _, err := search.WithinCtx(context.Background(), g, 0, -2); err == nil {
		t.Error("negative budget accepted")
	}
	if _, err := search.WithinCtx(context.Background(), g, 0, math.NaN()); err == nil {
		t.Error("NaN budget accepted")
	}
}

func TestWithinRespectsCongestion(t *testing.T) {
	s := gridService(t, 6)
	origin := gridgen.NodeAt(6, 0, 0)
	before, err := s.Snapshot().ReachableCtx(context.Background(), origin, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Congest everything 3×: the same budget reaches far less.
	if _, err := s.ApplyRegionCongestionCtx(context.Background(), graph.Point{X: 2.5, Y: 2.5}, 100, 3); err != nil {
		t.Fatal(err)
	}
	after, err := s.Snapshot().ReachableCtx(context.Background(), origin, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(after) >= len(before) {
		t.Errorf("congestion did not shrink the isochrone: %d → %d", len(before), len(after))
	}
}
