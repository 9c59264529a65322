package route

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/gridgen"
)

// chTestService builds a service over a k×k Variance grid.
func chTestService(t *testing.T, k int, seed int64) (*Service, *graph.Graph) {
	t.Helper()
	g, err := gridgen.Generate(gridgen.Config{K: k, Model: gridgen.Variance, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return NewService(g), g
}

func TestCHServedFromIndexAfterEnable(t *testing.T) {
	s, g := chTestService(t, 12, 1)
	if err := s.EnableCH(); err != nil {
		t.Fatal(err)
	}
	st := s.CHStats()
	if !st.Ready || st.Rebuilds != 1 {
		t.Fatalf("after EnableCH: %+v", st)
	}
	from, to := graph.NodeID(0), graph.NodeID(g.NumNodes()-1)
	rt, err := s.ComputeCtx(context.Background(), from, to, core.Options{Algorithm: core.CH})
	if err != nil {
		t.Fatal(err)
	}
	if rt.Algorithm != core.CH {
		t.Fatalf("served by %v, want ch", rt.Algorithm)
	}
	dij, err := s.ComputeCtx(context.Background(), from, to, core.Options{Algorithm: core.Dijkstra})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(rt.Cost-dij.Cost) > 1e-9*(1+dij.Cost) {
		t.Fatalf("ch cost %v disagrees with dijkstra %v", rt.Cost, dij.Cost)
	}
	if st := s.CHStats(); st.Queries != 1 {
		t.Fatalf("expected one index-served query, got %+v", st)
	}
}

// TestCHDisabledReturnsErrCHDisabled pins the outcome of algo=ch on a
// service that never called EnableCH: every entry point answers
// ErrCHDisabled, no other algorithm stands in, nothing is cached, and
// nothing is published.
func TestCHDisabledReturnsErrCHDisabled(t *testing.T) {
	s, g := chTestService(t, 10, 2)
	from, to := graph.NodeID(0), graph.NodeID(g.NumNodes()-1)
	opts := core.Options{Algorithm: core.CH}
	seq := s.Snapshot().Generation()

	if _, err := s.ComputeCtx(context.Background(), from, to, opts); !errors.Is(err, ErrCHDisabled) {
		t.Fatalf("ComputeCtx: err %v, want ErrCHDisabled", err)
	}
	for i, res := range s.ComputeBatchCtx(context.Background(), []Pair{{from, to}, {to, from}, {3, 7}}, opts) {
		if !errors.Is(res.Err, ErrCHDisabled) {
			t.Fatalf("ComputeBatchCtx pair %d: err %v, want ErrCHDisabled", i, res.Err)
		}
	}
	if _, err := s.ComputeDegraded(context.Background(), s.Snapshot(), from, to, opts); !errors.Is(err, ErrCHDisabled) {
		t.Fatalf("ComputeDegraded: err %v, want ErrCHDisabled", err)
	}
	if _, _, entries := s.CacheStats(); entries != 0 {
		t.Fatalf("route cache holds %d entries, want 0", entries)
	}
	if got := s.Snapshot().Generation(); got != seq {
		t.Fatalf("snapshot generation moved %d → %d", seq, got)
	}
	if st := s.CHStats(); st.Ready || st.Rebuilds != 0 || st.Queries != 0 {
		t.Fatalf("CH stats on a disabled service: %+v", st)
	}
}

// TestEnableCHTwiceReusesTopology pins EnableCH's cost: the first call
// builds the topology, every call and every later mutation customizes
// once, and nothing rebuilds the structure.
func TestEnableCHTwiceReusesTopology(t *testing.T) {
	s, _ := chTestService(t, 8, 4)
	for i := 1; i <= 2; i++ {
		if err := s.EnableCH(); err != nil {
			t.Fatal(err)
		}
		if st := s.CHStats(); !st.Ready || st.Rebuilds != 1 || st.Customizations != uint64(i) {
			t.Fatalf("after EnableCH #%d: %+v, want ready, 1 rebuild, %d customizations", i, st, i)
		}
	}
	if _, err := congest(s, 0, 1, 2); err != nil {
		t.Fatal(err)
	}
	if st := s.CHStats(); st.Rebuilds != 1 || st.Customizations != 3 {
		t.Fatalf("after a mutation: %+v, want 1 rebuild, 3 customizations", st)
	}
}

// TestCHMutationRecustomizesSynchronously is the tentpole guarantee of the
// topology/metric split: a traffic mutation no longer stales the index at
// all. The mutator re-customizes the metric before returning, so the very
// next CH request is index-served with the congested costs.
func TestCHMutationRecustomizesSynchronously(t *testing.T) {
	s, g := chTestService(t, 10, 3)
	if err := s.EnableCH(); err != nil {
		t.Fatal(err)
	}
	before := s.CHStats()
	if _, err := congest(s, 0, 1, 5); err != nil {
		t.Fatal(err)
	}
	st := s.CHStats()
	if !st.Ready {
		t.Fatalf("mutation published a snapshot without an index: %+v", st)
	}
	if st.Customizations <= before.Customizations {
		t.Fatalf("mutation did not run a customization pass: before %d, after %d",
			before.Customizations, st.Customizations)
	}
	if st.Rebuilds != before.Rebuilds {
		t.Fatalf("mutation triggered a structural rebuild (%d → %d); only the metric should refresh",
			before.Rebuilds, st.Rebuilds)
	}
	from, to := graph.NodeID(0), graph.NodeID(g.NumNodes()-1)
	rt, err := s.ComputeCtx(context.Background(), from, to, core.Options{Algorithm: core.CH})
	if err != nil {
		t.Fatal(err)
	}
	if rt.Algorithm != core.CH {
		t.Fatalf("post-mutation request served by %v, want the re-customized index", rt.Algorithm)
	}
	dij, err := s.ComputeCtx(context.Background(), from, to, core.Options{Algorithm: core.Dijkstra})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(rt.Cost-dij.Cost) > 1e-9*(1+dij.Cost) {
		t.Fatalf("index cost %v disagrees with dijkstra %v under congestion", rt.Cost, dij.Cost)
	}
}

// TestSustainedMutationStreamZeroStaleFallbacks drives a warm service with
// a stream of batched traffic updates interleaved with CH queries: every
// query must be index-served and agree exactly with Dijkstra under the
// same costs.
func TestSustainedMutationStreamZeroStaleFallbacks(t *testing.T) {
	s, g := chTestService(t, 12, 6)
	if err := s.EnableCH(); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(61))
	edges := g.Edges()
	n := g.NumNodes()
	rounds := 40
	if testing.Short() {
		rounds = 8
	}
	for round := 0; round < rounds; round++ {
		batch := make([]graph.EdgeCostChange, 0, 16)
		for i := 0; i < 16; i++ {
			e := edges[rng.Intn(len(edges))]
			batch = append(batch, graph.EdgeCostChange{
				Tail: e.Tail, Head: e.Head, Cost: e.Cost * (0.5 + 2.5*rng.Float64()),
			})
		}
		if _, err := s.ApplyTrafficBatchCtx(context.Background(), batch); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			from := graph.NodeID(rng.Intn(n))
			to := graph.NodeID(rng.Intn(n))
			snap := s.Snapshot()
			rt, err := s.routeSnap(context.Background(), snap, from, to, core.Options{Algorithm: core.CH})
			if err != nil {
				t.Fatal(err)
			}
			if rt.Algorithm != core.CH {
				t.Fatalf("round %d: stream query served by %v", round, rt.Algorithm)
			}
			dij, err := s.routeSnap(context.Background(), snap, from, to, core.Options{Algorithm: core.Dijkstra})
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(rt.Cost-dij.Cost) > 1e-9*(1+dij.Cost) {
				t.Fatalf("round %d %d→%d: ch %v vs dijkstra %v", round, from, to, rt.Cost, dij.Cost)
			}
		}
	}
	st := s.CHStats()
	if st.Rebuilds != 1 {
		t.Fatalf("sustained stream forced %d structural builds, want the initial 1", st.Rebuilds)
	}
	if st.Customizations < uint64(rounds) {
		t.Fatalf("customizations %d < %d mutation rounds", st.Customizations, rounds)
	}
}

// TestCHNeverDisagreesUnderConcurrentMutation is the -race guarantee of the
// snapshot design: query workers hammer algo=ch while a mutator applies and
// resets congestion. Every CH answer must match a Dijkstra computed on the
// same snapshot, so a stale hierarchy can never leak a cost from retired
// edge weights.
func TestCHNeverDisagreesUnderConcurrentMutation(t *testing.T) {
	s, g := chTestService(t, 9, 4)
	if err := s.EnableCH(); err != nil {
		t.Fatal(err)
	}
	n := g.NumNodes()
	stop := make(chan struct{})
	var mutWg, wg sync.WaitGroup

	mutWg.Add(1)
	go func() { // mutator; runs until stop closes, after the workers finish
		defer mutWg.Done()
		rng := rand.New(rand.NewSource(99))
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if i%4 == 3 {
				s.ResetTrafficCtx(context.Background())
			} else {
				e := g.Edges()[rng.Intn(g.NumEdges())]
				if _, err := congest(s, e.Tail, e.Head, 1+rng.Float64()); err != nil {
					t.Errorf("congestion batch: %v", err)
					return
				}
			}
			time.Sleep(time.Millisecond)
		}
	}()

	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 60; i++ {
				from := graph.NodeID(rng.Intn(n))
				to := graph.NodeID(rng.Intn(n))
				// Both computations read one snapshot and bypass the route
				// cache, so a mutation between them cannot make their costs
				// incomparable, and neither answer can come from a previous
				// generation's cache entry.
				snap := s.Snapshot()
				chRt, err := s.routeSnap(context.Background(), snap, from, to, core.Options{Algorithm: core.CH})
				if err != nil {
					t.Errorf("ch %d→%d: %v", from, to, err)
					return
				}
				dij, err := s.routeSnap(context.Background(), snap, from, to, core.Options{Algorithm: core.Dijkstra})
				if err != nil {
					t.Errorf("dijkstra %d→%d: %v", from, to, err)
					return
				}
				if math.Abs(chRt.Cost-dij.Cost) > 1e-9*(1+dij.Cost) {
					t.Errorf("%d→%d: ch cost %v, dijkstra %v", from, to, chRt.Cost, dij.Cost)
					return
				}
			}
		}(int64(w + 1))
	}

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("concurrent CH stress did not finish in 60s")
	}
	close(stop)
	mutWg.Wait()
}

// TestCHVersionedAgreementAfterEachMutation alternates mutation and strict
// agreement: after every congestion step the index-served cost must equal
// Dijkstra's exactly, with no wait — the mutator re-customized before
// returning.
func TestCHVersionedAgreementAfterEachMutation(t *testing.T) {
	s, g := chTestService(t, 8, 5)
	if err := s.EnableCH(); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(17))
	n := g.NumNodes()
	for round := 0; round < 5; round++ {
		e := g.Edges()[rng.Intn(g.NumEdges())]
		if _, err := congest(s, e.Tail, e.Head, 1.5+rng.Float64()); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 10; i++ {
			from := graph.NodeID(rng.Intn(n))
			to := graph.NodeID(rng.Intn(n))
			chRt, err := s.ComputeCtx(context.Background(), from, to, core.Options{Algorithm: core.CH})
			if err != nil {
				t.Fatal(err)
			}
			if chRt.Algorithm != core.CH {
				t.Fatalf("round %d: fresh index not serving (%v)", round, chRt.Algorithm)
			}
			dij, err := s.ComputeCtx(context.Background(), from, to, core.Options{Algorithm: core.Dijkstra})
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(chRt.Cost-dij.Cost) > 1e-9*(1+dij.Cost) {
				t.Fatalf("round %d %d→%d: ch %v vs dijkstra %v", round, from, to, chRt.Cost, dij.Cost)
			}
		}
	}
}
