package ch

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"repro/internal/graph"
)

// gateIndex builds the CH gates' fixture: a 16×16 two-way grid with varied
// costs, so found queries unpack real shortcuts, plus one isolated island
// node. It warms the workspace pool and every scratch slice with the
// longest query.
func gateIndex(t *testing.T) (ix *Index, opposite, island graph.NodeID) {
	t.Helper()
	const k = 16
	b := graph.NewBuilder(k*k+1, 4*k*(k-1))
	for i := 0; i <= k*k; i++ {
		b.AddNode(float64(i%k), float64(i/k))
	}
	rng := rand.New(rand.NewSource(1993))
	for u := graph.NodeID(0); u < k*k; u++ {
		if u%k+1 < k {
			b.AddUndirectedEdge(u, u+1, 1+rng.Float64())
		}
		if u+k < k*k {
			b.AddUndirectedEdge(u, u+k, 1+rng.Float64())
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if ix, err = Build(g, Options{}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, err := ix.QueryCtx(context.Background(), 0, k*k-1); err != nil {
			t.Fatal(err)
		}
	}
	return ix, k*k - 1, k * k
}

// queryCase is one QueryCtx call and the outcome and allocation count a
// warm run must show.
type queryCase struct {
	name   string
	ctx    context.Context
	s, d   graph.NodeID
	found  bool
	err    error
	allocs float64
}

func runQueryCases(t *testing.T, ix *Index, cases []queryCase) {
	t.Helper()
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			allocs := testing.AllocsPerRun(100, func() {
				res, err := ix.QueryCtx(c.ctx, c.s, c.d)
				if res.Found != c.found || !errors.Is(err, c.err) {
					t.Errorf("found=%v err=%v, want found=%v err=%v", res.Found, err, c.found, c.err)
				}
			})
			if allocs != c.allocs {
				t.Errorf("warm QueryCtx allocates %.1f times per run, want %.0f", allocs, c.allocs)
			}
		})
	}
}

// TestQueryCtxUnreachableZeroAlloc is the gate test behind the
// //atis:hotpath annotation on QueryCtx: on a warm workspace pool, a query
// that finds no path walks the same chains as a found one and allocates
// nothing, and so does a query on a dead context. A rejected pair formats
// its error, so it is outside the allocation contract; it only has to fail
// before any search. TestQueryCtxZeroAllocBeyondPath covers found queries.
//
// searchCtx's mid-walk ctx poll stays unexecuted: it fires every
// ctxCheckInterval (1024) chain steps, and the two ancestor chains of the
// deepest pair of a 100×100 grid join only 703 nodes.
func TestQueryCtxUnreachableZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector defeats sync.Pool caching, so allocs/op is not meaningful under -race")
	}
	ix, opposite, island := gateIndex(t)
	dead, cancel := context.WithCancel(context.Background())
	cancel()
	runQueryCases(t, ix, []queryCase{
		{"to island", context.Background(), 0, island, false, nil, 0},
		{"from island", context.Background(), island, opposite, false, nil, 0},
		{"dead ctx", dead, 0, opposite, false, context.Canceled, 0},
	})
	if _, err := ix.QueryCtx(context.Background(), -1, 0); err == nil {
		t.Error("source -1 accepted")
	}
	if _, err := ix.QueryCtx(context.Background(), 0, island+1); err == nil {
		t.Error("out-of-range destination accepted")
	}
}

// TestQueryCtxZeroAllocBeyondPath holds found queries to exactly one
// allocation, the exact-size path copy unpackPath returns; a same-node
// query's one-node path is that allocation too.
func TestQueryCtxZeroAllocBeyondPath(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector defeats sync.Pool caching, so allocs/op is not meaningful under -race")
	}
	ix, opposite, _ := gateIndex(t)
	live := context.Background()
	runQueryCases(t, ix, []queryCase{
		{"corner to corner", live, 0, opposite, true, nil, 1},
		{"across", live, 15, 240, true, nil, 1},
		{"neighbours", live, 119, 120, true, nil, 1},
		{"same node", live, 5, 5, true, nil, 1},
	})
}
