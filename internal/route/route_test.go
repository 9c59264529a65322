package route

import (
	"context"
	"math"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/gridgen"
	"repro/internal/mpls"
)

func gridService(t *testing.T, k int) *Service {
	t.Helper()
	return NewService(gridgen.MustGenerate(gridgen.Config{K: k, Model: gridgen.Uniform}))
}

// congest scales the segment (u, v) and its reverse by factor as one
// traffic batch of two Scale entries.
func congest(s *Service, u, v graph.NodeID, factor float64) (int, error) {
	return s.ApplyTrafficBatchCtx(context.Background(), []graph.EdgeCostChange{
		{Tail: u, Head: v, Cost: factor, Scale: true},
		{Tail: v, Head: u, Cost: factor, Scale: true},
	})
}

func TestComputeBasic(t *testing.T) {
	s := gridService(t, 6)
	r, err := s.ComputeCtx(context.Background(), 0, 35, core.Options{})
	if err != nil || !r.Found {
		t.Fatalf("ComputeCtx: %v found=%v", err, r.Found)
	}
	if r.Cost != 10 { // corner to corner on a 6×6 unit grid
		t.Errorf("cost = %v, want 10", r.Cost)
	}
}

func TestServiceSnapshotsCallerGraph(t *testing.T) {
	g := gridgen.MustGenerate(gridgen.Config{K: 4})
	s := NewService(g)
	if _, err := congest(s, 0, 1, 5); err != nil {
		t.Fatal(err)
	}
	if c, _ := g.ArcCost(0, 1); c != 1 {
		t.Error("service mutated the caller's graph")
	}
}

func TestEvaluate(t *testing.T) {
	s := gridService(t, 5)
	r, err := s.ComputeCtx(context.Background(), 0, 4, core.Options{}) // along the bottom row
	if err != nil {
		t.Fatal(err)
	}
	ev, err := s.Evaluate(r.Path)
	if err != nil {
		t.Fatal(err)
	}
	if !ev.Valid || ev.Hops != 4 {
		t.Errorf("evaluation = %+v", ev)
	}
	if math.Abs(ev.Distance-4) > 1e-9 {
		t.Errorf("distance = %v, want 4", ev.Distance)
	}
	if ev.CongestionRatio != 1 || ev.CongestedHops != 0 {
		t.Errorf("free flow evaluation = %+v", ev)
	}
	if math.Abs(ev.BaseCost-ev.CurrentCost) > 1e-12 {
		t.Errorf("base %v != current %v under free flow", ev.BaseCost, ev.CurrentCost)
	}
}

func TestEvaluateRejectsNonPath(t *testing.T) {
	s := gridService(t, 5)
	_, err := s.Evaluate(graph.Path{Nodes: []graph.NodeID{0, 7}})
	if err == nil {
		t.Error("non-path accepted")
	}
}

func TestCongestionChangesRoutesAndEvaluation(t *testing.T) {
	s := gridService(t, 5)
	before, err := s.ComputeCtx(context.Background(), 0, 4, core.Options{Algorithm: core.Dijkstra})
	if err != nil {
		t.Fatal(err)
	}
	// Congest the bottom row heavily.
	for col := 0; col < 4; col++ {
		u := gridgen.NodeAt(5, 0, col)
		v := gridgen.NodeAt(5, 0, col+1)
		if n, err := congest(s, u, v, 10); err != nil || n == 0 {
			t.Fatalf("congestion: %d %v", n, err)
		}
	}
	// The old route is now expensive…
	ev, err := s.Evaluate(before.Path)
	if err != nil {
		t.Fatal(err)
	}
	if ev.CongestionRatio < 9.9 || ev.CongestedHops != 4 {
		t.Errorf("evaluation after congestion = %+v", ev)
	}
	// …and recomputation routes around it.
	after, err := s.ComputeCtx(context.Background(), 0, 4, core.Options{Algorithm: core.Dijkstra})
	if err != nil {
		t.Fatal(err)
	}
	if after.Cost >= before.Cost*10 {
		t.Errorf("recomputed cost %v did not avoid congestion", after.Cost)
	}
	same := len(after.Path.Nodes) == len(before.Path.Nodes)
	if same {
		for i := range after.Path.Nodes {
			if after.Path.Nodes[i] != before.Path.Nodes[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Error("route unchanged despite 10× congestion on it")
	}
	// Reset restores free flow.
	s.ResetTrafficCtx(context.Background())
	reset, _ := s.ComputeCtx(context.Background(), 0, 4, core.Options{Algorithm: core.Dijkstra})
	if math.Abs(reset.Cost-before.Cost) > 1e-9 {
		t.Errorf("after reset cost = %v, want %v", reset.Cost, before.Cost)
	}
}

func TestApplyCongestionMissingEdge(t *testing.T) {
	s := gridService(t, 4)
	n, err := congest(s, 0, 15, 2) // opposite corners: no edge
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Error("congestion applied to a non-edge")
	}
	if _, err := congest(s, 0, 1, -1); err == nil {
		t.Error("negative factor accepted")
	}
}

// TestCongestionRejectsZeroFactor: factor 0 would zero every cost it
// touches beyond recovery by any later factor, so both congestion calls
// refuse it and publish nothing.
func TestCongestionRejectsZeroFactor(t *testing.T) {
	s := gridService(t, 4)
	gen := s.Snapshot().Generation()
	if _, err := congest(s, 0, 1, 0); err == nil {
		t.Error("a congestion batch accepted factor 0")
	}
	if _, err := s.ApplyRegionCongestionCtx(context.Background(), graph.Point{X: 1, Y: 1}, 100, 0); err == nil {
		t.Error("ApplyRegionCongestionCtx accepted factor 0")
	}
	if got := s.Snapshot().Generation(); got != gen {
		t.Errorf("rejected factors moved the snapshot generation %d → %d", gen, got)
	}
	if c, _ := s.Graph().ArcCost(0, 1); c != 1 {
		t.Errorf("edge cost after rejected factors = %v, want 1", c)
	}
}

func TestApplyRegionCongestion(t *testing.T) {
	s := gridService(t, 7)
	n, err := s.ApplyRegionCongestionCtx(context.Background(), graph.Point{X: 3, Y: 3}, 1.5, 3)
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("region congestion affected nothing")
	}
	// An edge at the centre tripled; an edge at the corner did not.
	c, _ := s.Graph().ArcCost(gridgen.NodeAt(7, 3, 3), gridgen.NodeAt(7, 3, 4))
	if c != 3 {
		t.Errorf("centre edge cost = %v, want 3", c)
	}
	c, _ = s.Graph().ArcCost(0, 1)
	if c != 1 {
		t.Errorf("corner edge cost = %v, want 1", c)
	}
	if _, err := s.ApplyRegionCongestionCtx(context.Background(), graph.Point{}, 1, -2); err == nil {
		t.Error("negative factor accepted")
	}
}

// parallelService serves a two-node network with parallel edges 0→1 of
// costs 1 and 5 and one edge 1→0 of cost 2.
func parallelService(t *testing.T) *Service {
	t.Helper()
	b := graph.NewBuilder(2, 3)
	b.AddNode(0, 0)
	b.AddNode(1, 0)
	b.AddEdge(0, 1, 1)
	b.AddEdge(0, 1, 5)
	b.AddEdge(1, 0, 2)
	return NewService(b.MustBuild())
}

// wantCosts checks the published costs of node 0's out-arcs and of 1→0.
func wantCosts(t *testing.T, s *Service, par0, par1, back float64) {
	t.Helper()
	arcs := s.Graph().Arcs(0)
	back1, _ := s.Graph().ArcCost(1, 0)
	if len(arcs) != 2 || arcs[0].Cost != par0 || arcs[1].Cost != par1 || back1 != back {
		t.Errorf("costs 0→1 %v and 1→0 %v, want parallel %v and %v, back %v", arcs, back1, par0, par1, back)
	}
}

// TestResetKeepsParallelEdgesDistinct: a reset restores each parallel
// edge to its own free-flow cost, not every edge of the pair to one.
func TestResetKeepsParallelEdgesDistinct(t *testing.T) {
	s := parallelService(t)
	s.ResetTrafficCtx(context.Background())
	wantCosts(t, s, 1, 5, 2)
	if _, err := s.ApplyTrafficBatchCtx(context.Background(), []graph.EdgeCostChange{{Tail: 0, Head: 1, Cost: 3, Scale: true}}); err != nil {
		t.Fatal(err)
	}
	s.ResetTrafficCtx(context.Background())
	wantCosts(t, s, 1, 5, 2)
}

// TestRegionCongestionKeepsParallelEdgesDistinct: region congestion
// scales each parallel edge once, from its own cost, and counts the pair
// once.
func TestRegionCongestionKeepsParallelEdgesDistinct(t *testing.T) {
	s := parallelService(t)
	n, err := s.ApplyRegionCongestionCtx(context.Background(), graph.Point{}, 10, 2)
	if err != nil || n != 2 {
		t.Fatalf("region congestion = %d, %v; want 2 pairs, nil", n, err)
	}
	wantCosts(t, s, 2, 10, 4)
}

func TestDisplayShowsRouteAndLandmarks(t *testing.T) {
	s := NewService(mpls.MustGenerate(mpls.Config{}))
	r, err := s.ComputeByName("G", "D", core.Options{})
	if err != nil || !r.Found {
		t.Fatalf("route G→D: %v found=%v", err, r.Found)
	}
	out := s.Snapshot().Display(r.Path, 66, 33)
	for _, want := range []string{"S", "D", "o", "."} {
		if !strings.Contains(out, want) {
			t.Errorf("display missing %q", want)
		}
	}
	// Landmarks not on the route still render.
	if !strings.Contains(out, "A") {
		t.Error("display missing landmark A")
	}
}

func TestComputeByNameUnknown(t *testing.T) {
	s := gridService(t, 4)
	if _, err := s.ComputeByName("X", "Y", core.Options{}); err == nil {
		t.Error("unknown landmarks accepted")
	}
}

func TestConcurrentComputeAndTraffic(t *testing.T) {
	s := NewService(mpls.MustGenerate(mpls.Config{}))
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 20; j++ {
				if i%2 == 0 {
					r, err := s.ComputeByName("C", "D", core.Options{})
					if err != nil || !r.Found {
						t.Errorf("compute: %v", err)
						return
					}
				} else {
					if _, err := s.ApplyRegionCongestionCtx(context.Background(), graph.Point{X: 16, Y: 16}, 4, 1.1); err != nil {
						t.Errorf("congestion: %v", err)
						return
					}
				}
			}
		}(i)
	}
	wg.Wait()
}
