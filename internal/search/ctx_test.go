package search

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/estimator"
	"repro/internal/graph"
	"repro/internal/gridgen"
)

// countdownCtx is a context whose Err() starts failing after a fixed
// number of calls — a deterministic stand-in for "the client hung up
// mid-search". The kernels consult Err() once at entry and then every
// CheckInterval-th poll, so arming it to fail on the second call proves
// a kernel notices cancellation within one check interval of its main
// loop, with no goroutines or wall-clock in the test.
type countdownCtx struct {
	context.Context
	mu         sync.Mutex
	calls      int
	after      int
	canceledAt time.Time // when Err() first reported Canceled
}

func newCountdownCtx(after int) *countdownCtx {
	return &countdownCtx{Context: context.Background(), after: after}
}

func (c *countdownCtx) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.calls++
	if c.calls > c.after {
		if c.canceledAt.IsZero() {
			c.canceledAt = time.Now()
		}
		return context.Canceled
	}
	return nil
}

func lifecycleGrid(t testing.TB, k int) *graph.Graph {
	t.Helper()
	g, err := gridgen.Generate(gridgen.Config{K: k, Model: gridgen.Variance, Seed: 1993})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// kernelsUnderTest enumerates every ctx-taking kernel entry point so the
// lifecycle contract is asserted uniformly.
func kernelsUnderTest() map[string]func(context.Context, *graph.Graph, graph.NodeID, graph.NodeID) (Result, error) {
	return map[string]func(context.Context, *graph.Graph, graph.NodeID, graph.NodeID) (Result, error){
		"iterative": IterativeCtx,
		"dijkstra":  DijkstraCtx,
		"astar": func(ctx context.Context, g *graph.Graph, s, d graph.NodeID) (Result, error) {
			return AStarCtx(ctx, g, s, d, estimator.Euclidean())
		},
		"bidirectional": func(ctx context.Context, g *graph.Graph, s, d graph.NodeID) (Result, error) {
			return BidirectionalCtx(ctx, g, s, d)
		},
	}
}

func TestKernelsFailFastOnDeadCtx(t *testing.T) {
	g := lifecycleGrid(t, 10)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for name, kernel := range kernelsUnderTest() {
		res, err := kernel(ctx, g, 0, graph.NodeID(g.NumNodes()-1))
		if !errors.Is(err, ErrCanceled) {
			t.Errorf("%s on dead ctx: err = %v, want ErrCanceled", name, err)
		}
		if res.Trace.Expansions != 0 {
			t.Errorf("%s on dead ctx expanded %d nodes before checking", name, res.Trace.Expansions)
		}
	}
}

func TestKernelsMapDeadlineToErrDeadline(t *testing.T) {
	g := lifecycleGrid(t, 10)
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	for name, kernel := range kernelsUnderTest() {
		if _, err := kernel(ctx, g, 0, graph.NodeID(g.NumNodes()-1)); !errors.Is(err, ErrDeadline) {
			t.Errorf("%s on expired ctx: err = %v, want ErrDeadline", name, err)
		}
	}
}

// TestMidSearchCancelWithinOneInterval arms the context to die on its
// second Err() call — the first in-loop check after the entry check —
// and asserts each kernel stops within one CheckInterval of expansions,
// returning ErrCanceled with the partial trace of the abandoned work.
func TestMidSearchCancelWithinOneInterval(t *testing.T) {
	g := lifecycleGrid(t, 100)
	for name, kernel := range kernelsUnderTest() {
		ctx := newCountdownCtx(1)
		res, err := kernel(ctx, g, 0, graph.NodeID(g.NumNodes()-1))
		if !errors.Is(err, ErrCanceled) {
			t.Fatalf("%s: err = %v, want ErrCanceled", name, err)
		}
		// The kernel saw a live context once (entry), so it performed at
		// least one poll's worth of work — and at most one check
		// interval's worth before noticing the cancellation. The
		// bidirectional kernel runs two frontiers, hence the factor two.
		if res.Trace.Expansions == 0 {
			t.Errorf("%s: canceled before doing any work; want a partial trace", name)
		}
		if res.Trace.Expansions > 2*CheckInterval {
			t.Errorf("%s: %d expansions after cancel; want ≤ %d (one interval per frontier)",
				name, res.Trace.Expansions, 2*CheckInterval)
		}
	}
}

// TestIterativeCancelLatency measures the acceptance criterion: an
// in-flight Iterative run on the 100x100 grid must return within 10ms
// of its cancellation becoming observable. The countdown context dies on
// its fourth Err() call — expansion ~3·CheckInterval of ~10000, solidly
// mid-search — and records the instant it first reported Canceled; the
// latency under test is from that instant to the kernel's return. (A
// goroutine-and-cancel version of this test cannot interleave on a
// single-core machine: the whole 400µs search outruns the scheduler's
// preemption quantum. The countdown form is deterministic everywhere,
// and TestMidSearchCancelWithinOneInterval separately bounds the
// between-checks gap in expansions.)
func TestIterativeCancelLatency(t *testing.T) {
	g := lifecycleGrid(t, 100)
	ctx := newCountdownCtx(3)
	res, err := IterativeCtx(ctx, g, 0, graph.NodeID(g.NumNodes()-1))
	returned := time.Now()
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if res.Trace.Expansions == 0 || res.Trace.Expansions >= g.NumNodes() {
		t.Fatalf("expansions = %d; cancellation did not land mid-search", res.Trace.Expansions)
	}
	if ctx.canceledAt.IsZero() {
		t.Fatal("countdown never fired")
	}
	if latency := returned.Sub(ctx.canceledAt); latency > 10*time.Millisecond {
		t.Fatalf("kernel returned %v after cancel became observable; want < 10ms", latency)
	}
}

func TestExpansionBudget(t *testing.T) {
	g := lifecycleGrid(t, 50)
	const budget = 100
	ctx := WithBudget(context.Background(), budget)
	for name, kernel := range kernelsUnderTest() {
		res, err := kernel(ctx, g, 0, graph.NodeID(g.NumNodes()-1))
		if !errors.Is(err, ErrBudget) {
			t.Errorf("%s: err = %v, want ErrBudget", name, err)
			continue
		}
		// poll runs before each expansion, so the overshoot is at most
		// one frontier's in-flight pop per direction.
		if res.Trace.Expansions > budget+2 {
			t.Errorf("%s: %d expansions under budget %d", name, res.Trace.Expansions, budget)
		}
	}
}

func TestBudgetZeroMeansUnlimited(t *testing.T) {
	g := lifecycleGrid(t, 10)
	ctx := WithBudget(context.Background(), 0)
	if _, err := DijkstraCtx(ctx, g, 0, graph.NodeID(g.NumNodes()-1)); err != nil {
		t.Fatalf("unlimited budget: %v", err)
	}
}

// TestCanceledRunsRecycleWorkspaces interleaves canceled and completed
// searches across goroutines: aborted runs must release their pooled
// workspaces in a reusable state (run under -race to catch retention
// bugs in the abort paths).
func TestCanceledRunsRecycleWorkspaces(t *testing.T) {
	// 60x60: Iterative pops ≥3600 nodes, so the first in-loop context
	// check (poll call 1024) is guaranteed to run and abort.
	g := lifecycleGrid(t, 60)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				if i%2 == 0 {
					ctx := newCountdownCtx(1)
					if _, err := IterativeCtx(ctx, g, 0, graph.NodeID(g.NumNodes()-1)); err == nil {
						t.Errorf("countdown cancel did not abort the run")
					}
					continue
				}
				res, err := DijkstraCtx(context.Background(), g, 0, graph.NodeID(g.NumNodes()-1))
				if err != nil || !res.Found {
					t.Errorf("clean run after aborts: found=%v err=%v", res.Found, err)
				}
			}
		}()
	}
	wg.Wait()
}

// TestKShortestCtxCancel covers the composite kernel: Yen's spur loop
// must propagate a mid-search cancellation from its inner Dijkstras.
func TestKShortestCtxCancel(t *testing.T) {
	g := lifecycleGrid(t, 30)
	ctx := newCountdownCtx(1)
	if _, _, err := KShortestCtx(ctx, g, 0, graph.NodeID(g.NumNodes()-1), 3); !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
}

// TestKShortestBackwardPassCancel: Yen's backward pass polls the
// request's context. A context that dies once the first path is found
// stops the request inside the pass, with ErrCanceled, before the pass
// is charged its pops and before any spur search runs.
func TestKShortestBackwardPassCancel(t *testing.T) {
	g := lifecycleGrid(t, 100)
	s, d := graph.NodeID(0), graph.NodeID(g.NumNodes()-1)
	// The context checks the first path's search makes, counted on a k=1
	// request, which runs that search alone.
	counter := newCountdownCtx(1 << 30)
	_, first, err := KShortestCtx(counter, g, s, d, 1)
	if err != nil {
		t.Fatal(err)
	}
	ctx := newCountdownCtx(counter.calls)
	_, tr, err := KShortestCtx(ctx, g, s, d, 3)
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if tr.HeapPops != first.HeapPops || tr.Iterations != 0 {
		t.Fatalf("request stopped after %d pops and %d spurs; the first path alone pops %d, so the pass completed",
			tr.HeapPops, tr.Iterations, first.HeapPops)
	}
	if ctx.calls <= counter.calls {
		t.Fatalf("the pass checked the context %d times after the first path, want at least once", ctx.calls-counter.calls)
	}
}

// TestWithinCtxCancel covers the isochrone kernel: a context that dies
// after the entry check stops the search from its loop.
func TestWithinCtxCancel(t *testing.T) {
	g := lifecycleGrid(t, 50)
	ctx := newCountdownCtx(1)
	if _, err := WithinCtx(ctx, g, 0, 1e9); !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
}
