package search

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"repro/internal/estimator"
	"repro/internal/graph"
)

// gateK is the side of the gate fixture's grid. At 40×40 a corner-to-corner
// query expands more than CheckInterval nodes in every kernel, so the
// amortised ctx poll runs inside the measured loop.
const gateK = 40

// gridWithIsland builds a gateK×gateK two-way grid whose segments cost
// 1 + U[0,1), plus one isolated island node. Varied costs make later, cheaper
// routes lower labels the frontier already holds (decrease-keys), and a query
// toward the island drives the whole warm loop over every reachable node
// without materialising a path.
func gridWithIsland(t *testing.T) (g *graph.Graph, corner, opposite, island graph.NodeID) {
	t.Helper()
	n := gateK * gateK
	b := graph.NewBuilder(n+1, 4*gateK*(gateK-1))
	for i := 0; i <= n; i++ {
		b.AddNode(float64(i%gateK), float64(i/gateK))
	}
	rng := rand.New(rand.NewSource(1993))
	for row := 0; row < gateK; row++ {
		for col := 0; col < gateK; col++ {
			u := graph.NodeID(row*gateK + col)
			if col+1 < gateK {
				b.AddUndirectedEdge(u, u+1, 1+rng.Float64())
			}
			if row+1 < gateK {
				b.AddUndirectedEdge(u, u+gateK, 1+rng.Float64())
			}
		}
	}
	built, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return built, 0, graph.NodeID(n - 1), graph.NodeID(n)
}

// nopRecorder is an installed Recorder that keeps nothing, so the gate can
// run the recording branch without measuring a real sink.
type nopRecorder struct{}

func (nopRecorder) ObserveSearch(string, float64, Trace) {}
func (nopRecorder) ObserveWorkspace(bool)                {}

// TestHotpathKernelsZeroAlloc is the gate test behind the //atis:hotpath
// annotations on IterativeCtx, BestFirstCtx, and BidirectionalCtx. With the
// workspace pool warm, every way a query can end is measured: a query that
// finds no path, runs out of budget, or starts on a dead context allocates
// nothing, and a query that finds its path allocates exactly once, for the
// returned path. The found query checks its own Trace, so a fixture that
// stops producing decrease-keys or stops reaching the ctx poll fails here
// instead of silently losing coverage.
func TestHotpathKernelsZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector defeats sync.Pool caching, so allocs/op is not meaningful under -race")
	}
	g, corner, opposite, island := gridWithIsland(t)
	live := context.Background()
	dead, cancel := context.WithCancel(live)
	cancel()
	budget := WithBudget(live, 100)
	zero := estimator.Zero()

	kernels := []struct {
		name string
		run  func(ctx context.Context, s, d graph.NodeID) (Result, error)
	}{
		{"IterativeCtx", func(ctx context.Context, s, d graph.NodeID) (Result, error) {
			return IterativeCtx(ctx, g, s, d)
		}},
		{"BestFirstCtx", func(ctx context.Context, s, d graph.NodeID) (Result, error) {
			return BestFirstCtx(ctx, g, s, d, Options{Estimator: zero})
		}},
		{"BidirectionalCtx", func(ctx context.Context, s, d graph.NodeID) (Result, error) {
			return BidirectionalCtx(ctx, g, s, d)
		}},
	}
	cases := []struct {
		name   string
		ctx    context.Context
		s, d   graph.NodeID
		found  bool
		err    error
		allocs float64
	}{
		{"found", live, corner, opposite, true, nil, 1},
		{"same node", live, corner, corner, true, nil, 1},
		{"to island", live, corner, island, false, nil, 0},
		{"from island", live, island, corner, false, nil, 0},
		{"budget", budget, corner, opposite, false, ErrBudget, 0},
		{"dead ctx", dead, corner, opposite, false, ErrCanceled, 0},
	}
	for _, k := range kernels {
		t.Run(k.name, func(t *testing.T) {
			// Warm the workspace pool, the reverse-view cache, and every
			// scratch slice the kernel grows on its first run.
			for i := 0; i < 4; i++ {
				if _, err := k.run(live, corner, opposite); err != nil {
					t.Fatal(err)
				}
			}
			res, _ := k.run(live, corner, opposite)
			if settled := res.Trace.Expansions + 1; res.Trace.Improvements <= settled {
				t.Errorf("fixture too easy: %d improvements for %d settled nodes, want decrease-keys", res.Trace.Improvements, settled)
			}
			if res.Trace.Expansions <= CheckInterval {
				t.Errorf("fixture too small: %d expansions never reach the ctx poll at %d", res.Trace.Expansions, CheckInterval)
			}

			for _, c := range cases {
				t.Run(c.name, func(t *testing.T) {
					allocs := testing.AllocsPerRun(20, func() {
						res, err := k.run(c.ctx, c.s, c.d)
						if res.Found != c.found || !errors.Is(err, c.err) {
							t.Errorf("found=%v err=%v, want found=%v err=%v", res.Found, err, c.found, c.err)
						}
					})
					if allocs != c.allocs {
						t.Errorf("warm %s allocates %.1f times per run, want %.0f", k.name, allocs, c.allocs)
					}
				})
			}

			t.Run("recorded", func(t *testing.T) {
				SetRecorder(nopRecorder{})
				defer SetRecorder(nil)
				allocs := testing.AllocsPerRun(20, func() {
					if res, err := k.run(live, corner, island); err != nil || res.Found {
						t.Errorf("unexpected outcome: found=%v err=%v", res.Found, err)
					}
				})
				if allocs != 0 {
					t.Errorf("recorded %s allocates %.1f times per run, want 0", k.name, allocs)
				}
			})

			// A rejected pair formats its error, so it is outside the
			// allocation contract; it only has to fail before any search.
			if _, err := k.run(live, corner, -1); err == nil {
				t.Error("destination -1 accepted")
			}
			if _, err := k.run(live, graph.NodeID(g.NumNodes()), corner); err == nil {
				t.Error("out-of-range source accepted")
			}
		})
	}
}

// TestBestFirstReopenZeroAlloc covers the branches of BestFirstCtx that
// only an inconsistent estimator reaches: weighted A* closes nodes too
// early, so a later, cheaper route either reopens them (the paper's
// Figure 3) or is dropped (Figure 2). Either way the found query
// allocates only its path.
func TestBestFirstReopenZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector defeats sync.Pool caching, so allocs/op is not meaningful under -race")
	}
	g, corner, opposite, _ := gridWithIsland(t)
	ctx := context.Background()
	weighted := estimator.Scaled(estimator.Euclidean(), 1.5)
	for _, reopen := range []bool{true, false} {
		opts := Options{Estimator: weighted, AllowReopen: reopen}
		var res Result
		allocs := testing.AllocsPerRun(20, func() {
			var err error
			if res, err = BestFirstCtx(ctx, g, corner, opposite, opts); err != nil || !res.Found {
				t.Errorf("unexpected outcome: found=%v err=%v", res.Found, err)
			}
		})
		if allocs != 1 {
			t.Errorf("AllowReopen=%v: warm weighted A* allocates %.1f times per run, want 1", reopen, allocs)
		}
		if reopen && res.Trace.Reopens == 0 {
			t.Error("fixture too easy: weighted A* reopened no node")
		}
	}

	// The duplicate-tolerant ablation frontier allocates per query by
	// design; it only has to skip its stale entries and agree.
	res, err := BestFirstCtx(ctx, g, corner, opposite, Options{Estimator: weighted, Frontier: FrontierDuplicates})
	if err != nil || !res.Found {
		t.Errorf("duplicates frontier: found=%v err=%v", res.Found, err)
	}
}
