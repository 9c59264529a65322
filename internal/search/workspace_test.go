package search

import (
	"context"
	"math"
	"reflect"
	"sync"
	"testing"

	"repro/internal/estimator"
	"repro/internal/graph"
	"repro/internal/gridgen"
)

// runners exercises every algorithm that draws on the workspace pool.
func workspaceRunners() map[string]func(g *graph.Graph, s, d graph.NodeID) (Result, error) {
	return map[string]func(g *graph.Graph, s, d graph.NodeID) (Result, error){
		"dijkstra": Dijkstra,
		"astar-euclidean": func(g *graph.Graph, s, d graph.NodeID) (Result, error) {
			return AStarCtx(context.Background(), g, s, d, estimator.Euclidean())
		},
		"astar-manhattan": func(g *graph.Graph, s, d graph.NodeID) (Result, error) {
			return AStarCtx(context.Background(), g, s, d, estimator.Manhattan())
		},
		"iterative": func(g *graph.Graph, s, d graph.NodeID) (Result, error) {
			return IterativeCtx(context.Background(), g, s, d)
		},
		"bidirectional": func(g *graph.Graph, s, d graph.NodeID) (Result, error) {
			return BidirectionalCtx(context.Background(), g, s, d)
		},
		"scan-frontier": func(g *graph.Graph, s, d graph.NodeID) (Result, error) {
			return BestFirstCtx(context.Background(), g, s, d, Options{Estimator: estimator.Zero(), Frontier: FrontierScan})
		},
		"dup-frontier": func(g *graph.Graph, s, d graph.NodeID) (Result, error) {
			return BestFirstCtx(context.Background(), g, s, d, Options{Estimator: estimator.Zero(), Frontier: FrontierDuplicates})
		},
	}
}

// TestWorkspaceReuseDeterministic re-runs every algorithm many times on the
// same pair: pooled workspaces must not leak any state between queries, so
// every run — including runs that recycle a dirty workspace — must return
// byte-identical results and traces.
func TestWorkspaceReuseDeterministic(t *testing.T) {
	g := gridgen.MustGenerate(gridgen.Config{K: 12, Model: gridgen.Variance, Seed: 7})
	s, d := gridgen.Pair(12, gridgen.Diagonal, 7)
	for name, run := range workspaceRunners() {
		first, err := run(g, s, d)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !first.Found {
			t.Fatalf("%s: no path found", name)
		}
		for i := 0; i < 10; i++ {
			got, err := run(g, s, d)
			if err != nil {
				t.Fatalf("%s run %d: %v", name, i, err)
			}
			if !reflect.DeepEqual(got, first) {
				t.Fatalf("%s run %d differs from first:\n got %+v\nwant %+v", name, i, got, first)
			}
		}
	}
}

// TestWorkspaceAcrossGraphSizes interleaves queries over graphs of different
// sizes so recycled workspaces must both grow and (logically) shrink; stale
// labels from the larger graph must never bleed into the smaller one.
func TestWorkspaceAcrossGraphSizes(t *testing.T) {
	big := gridgen.MustGenerate(gridgen.Config{K: 15, Model: gridgen.Variance, Seed: 3})
	small := gridgen.MustGenerate(gridgen.Config{K: 4, Model: gridgen.Uniform, Seed: 3})
	bs, bd := gridgen.Pair(15, gridgen.Diagonal, 3)

	wantBig, err := Dijkstra(big, bs, bd)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		gotBig, err := Dijkstra(big, bs, bd)
		if err != nil {
			t.Fatal(err)
		}
		if gotBig.Cost != wantBig.Cost {
			t.Fatalf("big cost drifted to %v, want %v", gotBig.Cost, wantBig.Cost)
		}
		gotSmall, err := Dijkstra(small, 0, 15)
		if err != nil {
			t.Fatal(err)
		}
		if gotSmall.Cost != 6 { // corner to corner on a 4×4 unit grid
			t.Fatalf("small cost = %v, want 6", gotSmall.Cost)
		}
	}
}

// TestWorkspaceConcurrentQueries hammers the pool from many goroutines (the
// race detector makes this a real concurrency test under `go test -race`).
// Every goroutine must see exactly the single-threaded result.
func TestWorkspaceConcurrentQueries(t *testing.T) {
	g := gridgen.MustGenerate(gridgen.Config{K: 10, Model: gridgen.Variance, Seed: 11})
	s, d := gridgen.Pair(10, gridgen.Diagonal, 11)
	runners := workspaceRunners()

	want := map[string]Result{}
	for name, run := range runners {
		res, err := run(g, s, d)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want[name] = res
	}

	var wg sync.WaitGroup
	errs := make(chan error, 1)
	for name, run := range runners {
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func(name string, run func(*graph.Graph, graph.NodeID, graph.NodeID) (Result, error)) {
				defer wg.Done()
				for i := 0; i < 25; i++ {
					got, err := run(g, s, d)
					if err != nil || !reflect.DeepEqual(got, want[name]) {
						select {
						case errs <- errOrMismatch(name, err):
						default:
						}
						return
					}
				}
			}(name, run)
		}
	}
	wg.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
}

func errOrMismatch(name string, err error) error {
	if err != nil {
		return err
	}
	return &mismatchError{name}
}

type mismatchError struct{ name string }

func (e *mismatchError) Error() string {
	return e.name + ": concurrent run diverged from single-threaded result"
}

// TestWorkspaceWithinAndSingleSource covers the non-Result entry points'
// pooled state: Within's labels and SingleSource's heap.
func TestWorkspaceWithinAndSingleSource(t *testing.T) {
	g := gridgen.MustGenerate(gridgen.Config{K: 8, Model: gridgen.Uniform, Seed: 5})
	wantReach, err := WithinCtx(context.Background(), g, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	wantDist, _ := SingleSource(g, 0)
	for i := 0; i < 5; i++ {
		reach, err := WithinCtx(context.Background(), g, 0, 3)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(reach, wantReach) {
			t.Fatalf("Within drifted on run %d", i)
		}
		dist, _ := SingleSource(g, 0)
		if !reflect.DeepEqual(dist, wantDist) {
			t.Fatalf("SingleSource drifted on run %d", i)
		}
	}
	// SingleSource's returned slices must be caller-owned, not pooled.
	dist1, prev1 := SingleSource(g, 0)
	dist2, prev2 := SingleSource(g, 7)
	if &dist1[0] == &dist2[0] || &prev1[0] == &prev2[0] {
		t.Fatal("SingleSource returned aliased slices across calls")
	}
	if math.IsInf(dist1[0], 1) || dist1[0] != 0 {
		t.Fatalf("dist1[0] = %v, want 0", dist1[0])
	}
}
