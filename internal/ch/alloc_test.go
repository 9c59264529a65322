package ch

import (
	"context"
	"testing"

	"repro/internal/graph"
)

// TestQueryCtxUnreachableZeroAlloc is the gate test behind the
// //atis:hotpath annotation on QueryCtx: with a warm workspace pool, a
// query that finds no path — which still walks both ancestor chains
// but skips the blessed exact-size result copy —
// performs zero allocations. TestSteadyStateAllocs covers the reachable
// case, where the result slice is the only allocation left.
func TestQueryCtxUnreachableZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector defeats sync.Pool caching, so allocs/op is not meaningful under -race")
	}
	// A two-way chain plus an isolated island node.
	b := graph.NewBuilder(9, 16)
	for i := 0; i < 9; i++ {
		b.AddNode(float64(i), 0)
	}
	for i := 0; i < 7; i++ {
		b.AddEdge(graph.NodeID(i), graph.NodeID(i+1), 1)
		b.AddEdge(graph.NodeID(i+1), graph.NodeID(i), 1)
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	ix, err := Build(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	island := graph.NodeID(8)

	// Warm the pool and grow every scratch slice with reachable queries.
	for i := 0; i < 4; i++ {
		if _, err := ix.QueryCtx(ctx, 0, 7); err != nil {
			t.Fatal(err)
		}
	}

	allocs := testing.AllocsPerRun(100, func() {
		res, err := ix.QueryCtx(ctx, 0, island)
		if err != nil || res.Found {
			t.Errorf("unexpected outcome: found=%v err=%v", res.Found, err)
		}
	})
	if allocs != 0 {
		t.Fatalf("warm unreachable QueryCtx allocates %.1f times per run, want 0", allocs)
	}
}
