package route

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/gridgen"
	"repro/internal/search"
	"repro/internal/telemetry"
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

// countdownCtx is a context whose Err() reports Canceled from its
// (after+1)-th call on: "the client hung up" at a chosen point, with no
// goroutines or wall-clock in the test.
type countdownCtx struct {
	context.Context
	calls atomic.Int64
	after int64
}

func (c *countdownCtx) Err() error {
	if c.calls.Add(1) > c.after {
		return context.Canceled
	}
	return nil
}

// TestComputeBatchCtxCancelPerPair: a batch's workers check the context
// before each pair, so a context that dies mid-batch stops the fan-out
// at pair granularity. Every pair here is a cache hit, which a dead
// context does not stop on its own, so each pair makes exactly one
// check: a context that dies after its fifth answers five pairs, and
// every other pair carries search.ErrCanceled.
func TestComputeBatchCtxCancelPerPair(t *testing.T) {
	s := gridService(t, 8)
	var pairs []Pair
	for v := graph.NodeID(1); v <= 40; v++ {
		pairs = append(pairs, Pair{From: 0, To: v})
	}
	for _, res := range s.ComputeBatchCtx(context.Background(), pairs, core.Options{}) {
		if res.Err != nil || !res.Route.Found {
			t.Fatalf("warm-up pair: found=%v err=%v", res.Route.Found, res.Err)
		}
	}
	const answered = 5
	var ok, canceled int
	for _, res := range s.ComputeBatchCtx(&countdownCtx{Context: context.Background(), after: answered}, pairs, core.Options{}) {
		switch {
		case res.Err == nil:
			ok++
		case errors.Is(res.Err, search.ErrCanceled):
			canceled++
		default:
			t.Fatalf("unexpected error %v", res.Err)
		}
	}
	if ok != answered || canceled != len(pairs)-answered {
		t.Fatalf("%d pairs answered and %d canceled, want %d and %d", ok, canceled, answered, len(pairs)-answered)
	}
}

func TestComputeBatchEmpty(t *testing.T) {
	s := gridService(t, 4)
	if got := s.ComputeBatchCtx(context.Background(), nil, core.Options{}); len(got) != 0 {
		t.Fatalf("empty batch returned %d results", len(got))
	}
}

// fillCache runs one Dijkstra query per pair (0, v) for v in 1..n-1, so
// each lands as a cache miss and leaves one resident entry.
func fillCache(t *testing.T, s *Service, n int) {
	t.Helper()
	for v := 1; v < n; v++ {
		if _, err := s.ComputeCtx(context.Background(), 0, graph.NodeID(v), core.Options{Algorithm: core.Dijkstra}); err != nil {
			t.Fatal(err)
		}
	}
}

// residentGens lists the cost generation of every resident key.
func residentGens(c *routeCache) []uint64 {
	var gens []uint64
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		for k := range s.table {
			gens = append(gens, k.gen)
		}
		s.mu.Unlock()
	}
	return gens
}

// TestCacheRetiredOnCostPublish pins retire-at-publish: every publish
// that changes costs — a traffic batch, a region congestion, a reset —
// leaves the cache empty, counts what it dropped as retired and not as
// evicted, and the next query refills the cache under the new generation.
func TestCacheRetiredOnCostPublish(t *testing.T) {
	s := gridService(t, 8)
	if err := s.EnableCH(); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	publishes := []struct {
		name    string
		publish func() error
	}{
		{"traffic batch", func() error {
			_, err := congest(s, 0, 1, 3)
			return err
		}},
		{"region congestion", func() error {
			_, err := s.ApplyRegionCongestionCtx(ctx, s.Graph().Point(0), 2, 1.5)
			return err
		}},
		{"reset", func() error {
			s.ResetTrafficCtx(ctx)
			return nil
		}},
	}
	var retired uint64
	for _, p := range publishes {
		fillCache(t, s, 20)
		_, _, before := s.CacheStats()
		if before != 19 {
			t.Fatalf("%s: %d resident before the publish, want 19", p.name, before)
		}
		gen := s.CostGeneration()
		if err := p.publish(); err != nil {
			t.Fatalf("%s: %v", p.name, err)
		}
		if g := s.CostGeneration(); g != gen+1 {
			t.Fatalf("%s: generation %d → %d, want a bump", p.name, gen, g)
		}
		if _, _, after := s.CacheStats(); after != 0 {
			t.Fatalf("%s: %d entries resident after the publish, want 0", p.name, after)
		}
		retired += uint64(before)
		if got := s.cache.retired.Value(); got != retired {
			t.Fatalf("%s: retired counter = %d, want %d", p.name, got, retired)
		}
		fillCache(t, s, 3)
		for _, g := range residentGens(s.cache) {
			if g != gen+1 {
				t.Fatalf("%s: refilled entry carries generation %d, want %d", p.name, g, gen+1)
			}
		}
	}
	if ev := s.cache.evictions.Value(); ev != 0 {
		t.Fatalf("evictions counter = %d after retires alone, want 0", ev)
	}
}

// TestCacheKeptByCostNeutralPublish: EnableCH republishes the same cost
// generation and a batch that changes no cost publishes nothing, so
// neither may drop a live entry.
func TestCacheKeptByCostNeutralPublish(t *testing.T) {
	s := gridService(t, 8)
	fillCache(t, s, 20)
	if err := s.EnableCH(); err != nil {
		t.Fatal(err)
	}
	if _, _, n := s.CacheStats(); n != 19 {
		t.Fatalf("EnableCH left %d entries, want 19", n)
	}
	e := s.Graph().Edges()[0]
	if n, err := s.ApplyTrafficBatchCtx(context.Background(), []graph.EdgeCostChange{{Tail: e.Tail, Head: e.Head, Cost: e.Cost}}); err != nil || n != 0 {
		t.Fatalf("cost-neutral batch: n=%d err=%v", n, err)
	}
	if _, _, n := s.CacheStats(); n != 19 {
		t.Fatalf("cost-neutral batch left %d entries, want 19", n)
	}
	hits0, _, _ := s.CacheStats()
	fillCache(t, s, 20)
	if hits, _, _ := s.CacheStats(); hits-hits0 != 19 {
		t.Fatalf("%d hits after cost-neutral publishes, want 19", hits-hits0)
	}
	if r := s.cache.retired.Value(); r != 0 {
		t.Fatalf("retired counter = %d, want 0", r)
	}
}

// TestCachePutRefusesRetiredGeneration: a reader still on a superseded
// snapshot must not re-seed the cache with a key no query will ask for.
func TestCachePutRefusesRetiredGeneration(t *testing.T) {
	c := newRouteCache(defaultCacheCapacity)
	c.retire(5)
	c.put(cacheKey{from: 1, to: 2, gen: 4}, core.Route{Cost: 1})
	if n := c.len(); n != 0 {
		t.Fatalf("put under retired generation 4 left %d entries, want 0", n)
	}
	c.put(cacheKey{from: 1, to: 2, gen: 5}, core.Route{Cost: 1})
	if n := c.len(); n != 1 {
		t.Fatalf("put under current generation 5 left %d entries, want 1", n)
	}
}

// TestCacheEvictionsExcludeRetired: LRU evictions and retired entries
// are separate counts, so neither hides the other.
func TestCacheEvictionsExcludeRetired(t *testing.T) {
	reg := telemetry.NewRegistry()
	c := newRouteCache(cacheShardCount) // one entry per shard
	c.evictions = reg.Counter("evictions", "")
	c.retired = reg.Counter("retired", "")
	for i := 0; i < 200; i++ {
		c.put(cacheKey{from: graph.NodeID(i), to: 1}, core.Route{Cost: 1})
	}
	resident := c.len()
	if ev := c.evictions.Value(); ev != uint64(200-resident) {
		t.Fatalf("evictions = %d with %d resident of 200 puts, want %d", ev, resident, 200-resident)
	}
	c.retire(1)
	if r := c.retired.Value(); r != uint64(resident) {
		t.Fatalf("retired = %d, want %d", r, resident)
	}
	if ev := c.evictions.Value(); ev != uint64(200-resident) {
		t.Fatalf("retire moved evictions to %d, want %d", ev, 200-resident)
	}
}

// TestCacheRetireUnderConcurrentReaders runs readers that keep filling
// the cache beside a writer that keeps publishing. Readers on a
// superseded snapshot race each retire with their puts; the generation
// floor must refuse every one, so once the writer stops, every resident
// key carries the published generation.
func TestCacheRetireUnderConcurrentReaders(t *testing.T) {
	g := gridgen.MustGenerate(gridgen.Config{K: 10, Model: gridgen.Variance, Seed: 3})
	s := NewService(g)
	if err := s.EnableCH(); err != nil {
		t.Fatal(err)
	}
	edges := g.Edges()
	n := g.NumNodes()
	var writing atomic.Bool
	writing.Store(true)
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			algos := []core.Algorithm{core.CH, core.Dijkstra}
			// Keep querying for a while after the writer stops, so the
			// last generation is resident when the test looks.
			after := 0
			for i := 0; after < 64; i++ {
				if !writing.Load() {
					after++
				}
				from, to := graph.NodeID(rng.Intn(8)), graph.NodeID(n-1-rng.Intn(8))
				if _, err := s.ComputeCtx(context.Background(), from, to, core.Options{Algorithm: algos[i%2]}); err != nil {
					t.Error(err)
					return
				}
			}
		}(int64(r))
	}
	rng := rand.New(rand.NewSource(9))
	for p := 0; p < 200; p++ {
		e := edges[rng.Intn(len(edges))]
		if _, err := s.ApplyTrafficBatchCtx(context.Background(), []graph.EdgeCostChange{
			{Tail: e.Tail, Head: e.Head, Cost: e.Cost * (1.1 + rng.Float64())},
		}); err != nil {
			t.Fatal(err)
		}
	}
	writing.Store(false)
	wg.Wait()
	gen := s.CostGeneration()
	gens := residentGens(s.cache)
	if len(gens) == 0 {
		t.Fatal("readers left nothing resident after the last publish")
	}
	for _, g := range gens {
		if g != gen {
			t.Fatalf("resident key carries generation %d, published is %d", g, gen)
		}
	}
	if s.cache.retired.Value() == 0 {
		t.Fatal("200 publishes beside readers retired nothing")
	}
}
