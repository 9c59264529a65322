package route

import (
	"context"
	"errors"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/gridgen"
	"repro/internal/mpls"
	"repro/internal/telemetry"
)

// TestStatsAndRegistryAgree is the fold-the-legacy-/stats guarantee:
// CacheStats and the Prometheus export read the same instruments, so the
// two views can never drift apart.
func TestStatsAndRegistryAgree(t *testing.T) {
	g := mpls.MustGenerate(mpls.Config{Seed: 1})
	svc := NewService(g)
	a, _ := g.Lookup("A")
	b, _ := g.Lookup("B")

	if _, err := svc.ComputeCtx(context.Background(), a, b, core.Options{}); err != nil { // miss
		t.Fatal(err)
	}
	if _, err := svc.ComputeCtx(context.Background(), a, b, core.Options{}); err != nil { // hit
		t.Fatal(err)
	}
	hits, misses, _ := svc.CacheStats()
	if hits != 1 || misses != 1 {
		t.Fatalf("CacheStats = %d hits, %d misses; want 1, 1", hits, misses)
	}

	reg := svc.Registry()
	if got := reg.Counter("atis_route_cache_requests_total", "", telemetry.L("result", "hit")).Value(); got != hits {
		t.Fatalf("registry hit counter %d != CacheStats hits %d", got, hits)
	}
	if got := reg.Counter("atis_route_cache_requests_total", "", telemetry.L("result", "miss")).Value(); got != misses {
		t.Fatalf("registry miss counter %d != CacheStats misses %d", got, misses)
	}

	var sb strings.Builder
	if err := reg.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		`atis_route_cache_requests_total{result="hit"} 1`,
		`atis_route_cache_requests_total{result="miss"} 1`,
		`atis_route_compute_seconds_count{algo="astar-euclidean"} 1`,
		"atis_route_cache_entries 1",
		"atis_traffic_generation 0",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("export missing %q\nexport:\n%s", want, out)
		}
	}
}

func TestTrafficUpdateCounterAndGenerationGauge(t *testing.T) {
	g := mpls.MustGenerate(mpls.Config{Seed: 1})
	svc := NewService(g)
	if _, err := svc.ApplyRegionCongestionCtx(context.Background(), graph.Point{X: 16, Y: 16}, 50, 2); err != nil {
		t.Fatal(err)
	}
	svc.ResetTrafficCtx(context.Background())
	if got := svc.Registry().Counter("atis_traffic_updates_total", "").Value(); got != 2 {
		t.Fatalf("atis_traffic_updates_total = %d, want 2", got)
	}
	var sb strings.Builder
	if err := svc.Registry().WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "atis_traffic_generation 2") {
		t.Errorf("export missing generation gauge at 2:\n%s", sb.String())
	}
}

// TestEvictionCounter overflows a single-entry-per-shard cache and checks
// every LRU eviction is accounted.
func TestEvictionCounter(t *testing.T) {
	c := newRouteCache(cacheShardCount) // one entry per shard
	reg := telemetry.NewRegistry()
	c.evictions = reg.Counter("atis_route_cache_evictions_total", "LRU evictions.")
	// Enough distinct keys that some shard sees a second insert.
	for i := 0; i < 64; i++ {
		c.put(cacheKey{from: graph.NodeID(i), to: graph.NodeID(i + 1)}, core.Route{Cost: float64(i)})
	}
	inserted, resident := uint64(64), uint64(c.len())
	if got := c.evictions.Value(); got != inserted-resident {
		t.Fatalf("evictions = %d, want inserted-resident = %d", got, inserted-resident)
	}
	if c.evictions.Value() == 0 {
		t.Fatal("64 keys over 16 single-entry shards must evict at least once")
	}
}

func TestBatchCounters(t *testing.T) {
	g := mpls.MustGenerate(mpls.Config{Seed: 1})
	svc := NewService(g)
	pairs := []Pair{{From: 0, To: 1}, {From: 1, To: 2}, {From: 2, To: 3}}
	svc.ComputeBatchCtx(context.Background(), pairs, core.Options{Algorithm: core.Dijkstra})
	reg := svc.Registry()
	if got := reg.Counter("atis_route_batch_requests_total", "").Value(); got != 1 {
		t.Fatalf("batch requests = %d, want 1", got)
	}
	if got := reg.Counter("atis_route_batch_pairs_total", "").Value(); got != 3 {
		t.Fatalf("batch pairs = %d, want 3", got)
	}
}

// TestMutatorContracts pins what each traffic mutator keeps on top of the
// shared clone-apply-publish helper: a region scan honours a cancel
// before anything changes, only a traffic batch counts in
// atis_traffic_batches_total, a refused or no-match batch publishes
// nothing, and a reset publishes even when costs are already pristine.
func TestMutatorContracts(t *testing.T) {
	svc := NewService(gridgen.MustGenerate(gridgen.Config{K: 4}))
	batches := svc.Registry().Counter("atis_traffic_batches_total", "")
	gen := func() uint64 { return svc.Snapshot().CostGeneration() }

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := svc.ApplyRegionCongestionCtx(ctx, graph.Point{X: 1, Y: 1}, 100, 2); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled region scan: err %v, want context.Canceled", err)
	}
	if gen() != 0 {
		t.Fatalf("canceled region scan published: generation %d", gen())
	}

	svc.ResetTrafficCtx(context.Background())
	if gen() != 1 {
		t.Fatalf("reset of pristine costs: generation %d, want 1", gen())
	}
	if n, err := svc.ApplyRegionCongestionCtx(context.Background(), graph.Point{X: 1, Y: 1}, 100, 2); err != nil || n == 0 {
		t.Fatalf("region congestion = %d, %v", n, err)
	}
	if batches.Value() != 0 {
		t.Fatalf("reset and region congestion counted %d traffic batches, want 0", batches.Value())
	}
	// The reset publishes on its own say-so, not because its batch
	// matched edges: an edgeless network still gets a new generation.
	b := graph.NewBuilder(1, 0)
	b.AddNode(0, 0)
	empty := NewService(b.MustBuild())
	empty.ResetTrafficCtx(context.Background())
	if g := empty.Snapshot().CostGeneration(); g != 1 {
		t.Fatalf("reset of an edgeless network: generation %d, want 1", g)
	}

	for name, changes := range map[string][]graph.EdgeCostChange{
		"refused":  {{Tail: 0, Head: 1, Cost: 5}, {Tail: 0, Head: 1, Cost: -1}},
		"no match": {{Tail: 0, Head: 15, Cost: 5}},
		"empty":    nil,
	} {
		n, _ := svc.ApplyTrafficBatchCtx(context.Background(), changes)
		if n != 0 || gen() != 2 || batches.Value() != 0 {
			t.Errorf("%s batch: affected %d, generation %d, batches %d; want 0, 2, 0", name, n, gen(), batches.Value())
		}
	}
	if n, err := svc.ApplyTrafficBatchCtx(context.Background(), []graph.EdgeCostChange{{Tail: 0, Head: 1, Cost: 5}}); err != nil || n != 1 {
		t.Fatalf("traffic batch = %d, %v", n, err)
	}
	if gen() != 3 || batches.Value() != 1 {
		t.Errorf("after one traffic batch: generation %d, batches %d; want 3, 1", gen(), batches.Value())
	}
}

// TestNoOpBatchPublishesNothing: a batch that re-sets an edge to its
// current cost changes no cost, so it publishes no snapshot, keeps the
// cached routes and pays no customization pass.
func TestNoOpBatchPublishesNothing(t *testing.T) {
	svc := gridService(t, 4)
	if err := svc.EnableCH(); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	customizations := svc.Registry().Counter("atis_ch_customizations_total", "")
	if _, err := svc.ComputeCtx(ctx, 0, 15, core.Options{}); err != nil {
		t.Fatal(err)
	}
	seq, c0 := svc.Snapshot().Generation(), customizations.Value()
	cost, _ := svc.Graph().ArcCost(0, 1)
	if n, err := svc.ApplyTrafficBatchCtx(ctx, []graph.EdgeCostChange{{Tail: 0, Head: 1, Cost: cost}}); err != nil || n != 0 {
		t.Fatalf("no-op batch = %d, %v; want 0, nil", n, err)
	}
	if got := svc.Snapshot().Generation(); got != seq {
		t.Errorf("no-op batch published: generation %d → %d", seq, got)
	}
	if got := customizations.Value(); got != c0 {
		t.Errorf("no-op batch customized: %d → %d passes", c0, got)
	}
	hits0, _, _ := svc.CacheStats()
	if _, err := svc.ComputeCtx(ctx, 0, 15, core.Options{}); err != nil {
		t.Fatal(err)
	}
	if hits, _, _ := svc.CacheStats(); hits != hits0+1 {
		t.Errorf("the cached route did not survive the no-op batch: hits %d → %d", hits0, hits)
	}
}
