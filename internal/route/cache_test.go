package route

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
)

func TestCacheHitOnRepeatedQuery(t *testing.T) {
	s := gridService(t, 8)
	r1, err := s.ComputeCtx(context.Background(), 0, 63, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	hits0, misses0, _ := s.CacheStats()
	if hits0 != 0 || misses0 != 1 {
		t.Fatalf("after first query: hits=%d misses=%d, want 0/1", hits0, misses0)
	}
	r2, err := s.ComputeCtx(context.Background(), 0, 63, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	hits1, _, entries := s.CacheStats()
	if hits1 != 1 {
		t.Fatalf("after repeat query: hits=%d, want 1", hits1)
	}
	if entries != 1 {
		t.Fatalf("entries = %d, want 1", entries)
	}
	if r2.Cost != r1.Cost || len(r2.Path.Nodes) != len(r1.Path.Nodes) {
		t.Fatalf("cached route differs: %+v vs %+v", r2, r1)
	}
	// A cache hit must hand back a private copy, never the resident slice.
	r2.Path.Nodes[0] = 99
	r3, _ := s.ComputeCtx(context.Background(), 0, 63, core.Options{})
	if r3.Path.Nodes[0] == 99 {
		t.Fatal("caller mutation leaked into the cache")
	}
}

func TestCacheKeyedByOptions(t *testing.T) {
	s := gridService(t, 8)
	if _, err := s.ComputeCtx(context.Background(), 0, 63, core.Options{Algorithm: core.Dijkstra}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.ComputeCtx(context.Background(), 0, 63, core.Options{Algorithm: core.AStarEuclidean}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.ComputeCtx(context.Background(), 0, 63, core.Options{Algorithm: core.AStarEuclidean, Weight: 2}); err != nil {
		t.Fatal(err)
	}
	hits, misses, _ := s.CacheStats()
	if hits != 0 || misses != 3 {
		t.Fatalf("distinct options must not share entries: hits=%d misses=%d", hits, misses)
	}
}

// TestCacheGenerationInvalidation is the core correctness property: a
// traffic mutation bumps the cost generation, so a cached pre-mutation route
// must never be served afterwards.
func TestCacheGenerationInvalidation(t *testing.T) {
	s := gridService(t, 8)
	if g := s.CostGeneration(); g != 0 {
		t.Fatalf("initial generation = %d, want 0", g)
	}
	base, err := s.ComputeCtx(context.Background(), 0, 63, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s.ComputeCtx(context.Background(), 0, 63, core.Options{}) // warm the cache

	// Double every edge: generation bumps, best path cost exactly doubles.
	min, max := s.Graph().Bounds()
	center := graph.Point{X: (min.X + max.X) / 2, Y: (min.Y + max.Y) / 2}
	n, err := s.ApplyRegionCongestionCtx(context.Background(), center, 1e9, 2)
	if err != nil || n == 0 {
		t.Fatalf("ApplyRegionCongestionCtx: n=%d err=%v", n, err)
	}
	if g := s.CostGeneration(); g != 1 {
		t.Fatalf("generation after mutation = %d, want 1", g)
	}
	congested, err := s.ComputeCtx(context.Background(), 0, 63, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if congested.Cost != 2*base.Cost {
		t.Fatalf("post-mutation cost = %v, want %v (stale cache entry served?)", congested.Cost, 2*base.Cost)
	}

	s.ResetTrafficCtx(context.Background())
	if g := s.CostGeneration(); g != 2 {
		t.Fatalf("generation after reset = %d, want 2", g)
	}
	restored, err := s.ComputeCtx(context.Background(), 0, 63, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if restored.Cost != base.Cost {
		t.Fatalf("post-reset cost = %v, want %v", restored.Cost, base.Cost)
	}
}

func TestCacheNoBumpWhenNothingChanged(t *testing.T) {
	s := gridService(t, 4)
	g0 := s.CostGeneration()
	// Congestion on a region holding no edges changes nothing.
	if n, err := s.ApplyRegionCongestionCtx(context.Background(), graph.Point{X: -100, Y: -100}, 0.1, 3); err != nil || n != 0 {
		t.Fatalf("n=%d err=%v", n, err)
	}
	if g := s.CostGeneration(); g != g0 {
		t.Fatalf("generation bumped to %d by a no-op mutation", g)
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c := newRouteCache(cacheShardCount) // minimum: one entry per shard
	k1 := cacheKey{from: 1, to: 2}
	k2 := cacheKey{from: 3, to: 4}
	c.put(k1, core.Route{Cost: 1})
	c.put(k2, core.Route{Cost: 2})
	total := c.len()
	if total < 1 || total > 2 {
		t.Fatalf("len = %d, want 1..2", total)
	}
	if k1.hash()%cacheShardCount == k2.hash()%cacheShardCount && total != 1 {
		t.Fatalf("same shard at capacity 1 must evict: len = %d", total)
	}
}

func TestComputeBatch(t *testing.T) {
	s := gridService(t, 8)
	pairs := []Pair{
		{From: 0, To: 63},
		{From: 7, To: 56},
		{From: 0, To: 63},  // duplicate: served from cache
		{From: 0, To: 999}, // out of range: per-pair error
	}
	results := s.ComputeBatchCtx(context.Background(), pairs, core.Options{})
	if len(results) != len(pairs) {
		t.Fatalf("got %d results, want %d", len(results), len(pairs))
	}
	if results[0].Err != nil || !results[0].Route.Found {
		t.Fatalf("pair 0: %+v", results[0])
	}
	if results[0].Route.Cost != results[2].Route.Cost {
		t.Fatalf("duplicate pair costs differ: %v vs %v", results[0].Route.Cost, results[2].Route.Cost)
	}
	if results[3].Err == nil {
		t.Fatal("out-of-range pair must carry an error")
	}
	if results[1].Err != nil || !results[1].Route.Found {
		t.Fatalf("pair 1: %+v", results[1])
	}
}

func TestComputeBatchEmpty(t *testing.T) {
	s := gridService(t, 4)
	if got := s.ComputeBatchCtx(context.Background(), nil, core.Options{}); len(got) != 0 {
		t.Fatalf("empty batch returned %d results", len(got))
	}
}
