package route

import (
	"context"
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/gridgen"
)

// TestSnapshotsCompleteUnderMutationStream is the mutate-while-querying
// guarantee of snapshot publication, run under -race: a sustained
// ApplyTrafficBatchCtx stream publishes new worlds while readers hammer the
// query paths, and every snapshot a reader loads must be complete — its
// CH metric customized for exactly its graph's costs, never a torn
// pairing of new costs with an old metric. On a CH-enabled service
// every published snapshot carries an index.
func TestSnapshotsCompleteUnderMutationStream(t *testing.T) {
	g := gridgen.MustGenerate(gridgen.Config{K: 10, Model: gridgen.Variance, Seed: 11})
	s := NewService(g)
	if err := s.EnableCH(); err != nil {
		t.Fatal(err)
	}
	edges := g.Edges()
	n := g.NumNodes()
	stop := make(chan struct{})
	var mutWg, wg sync.WaitGroup

	// Mutator: a sustained traffic stream, one batch per iteration.
	mutWg.Add(1)
	go func() {
		defer mutWg.Done()
		rng := rand.New(rand.NewSource(7))
		for {
			select {
			case <-stop:
				return
			default:
			}
			batch := make([]graph.EdgeCostChange, 0, 8)
			for i := 0; i < 8; i++ {
				e := edges[rng.Intn(len(edges))]
				batch = append(batch, graph.EdgeCostChange{
					Tail: e.Tail, Head: e.Head, Cost: e.Cost * (0.5 + 2.5*rng.Float64()),
				})
			}
			if _, err := s.ApplyTrafficBatchCtx(context.Background(), batch); err != nil {
				t.Errorf("ApplyTrafficBatchCtx: %v", err)
				return
			}
		}
	}()

	// Invariant watchers: load snapshots as fast as possible and check
	// each one is internally consistent — the CH metric prices a probe
	// pair exactly as Dijkstra does on the snapshot's own graph, and the
	// publish sequence never runs behind the cost generation.
	probeTo := graph.NodeID(n - 1)
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var lastSeq, lastGen uint64
			for i := 0; i < 4000; i++ {
				sn := s.Snapshot()
				ix := sn.CH()
				if ix == nil {
					t.Error("warmed service published a snapshot without an index")
					return
				}
				if i%50 == 0 {
					res, err := ix.QueryCtx(context.Background(), 0, probeTo)
					if err != nil {
						t.Error(err)
						return
					}
					dij, err := sn.planner.RouteCtx(context.Background(), 0, probeTo, core.Options{Algorithm: core.Dijkstra})
					if err != nil {
						t.Error(err)
						return
					}
					if math.Abs(res.Cost-dij.Cost) > 1e-9*(1+dij.Cost) {
						t.Errorf("torn snapshot: ch metric prices 0→%d at %v, its graph at %v",
							probeTo, res.Cost, dij.Cost)
						return
					}
				}
				if sn.Generation() < lastSeq || sn.CostGeneration() < lastGen {
					t.Errorf("snapshot identity went backwards: seq %d→%d, gen %d→%d",
						lastSeq, sn.Generation(), lastGen, sn.CostGeneration())
					return
				}
				lastSeq, lastGen = sn.Generation(), sn.CostGeneration()
			}
		}()
	}

	// Query readers: ComputeCtx with CH against whatever snapshot each
	// request loads; a CH answer must agree exactly with Dijkstra run
	// against the *same* snapshot — the strongest form of "complete
	// snapshots only", immune to a mutation landing between the two runs.
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			ctx := context.Background()
			for i := 0; i < 80; i++ {
				from := graph.NodeID(rng.Intn(n))
				to := graph.NodeID(rng.Intn(n))
				sn := s.Snapshot()
				chRt, err := s.ComputeIn(ctx, sn, from, to, core.Options{Algorithm: core.CH})
				if err != nil {
					t.Errorf("ch %d→%d: %v", from, to, err)
					return
				}
				if chRt.Algorithm != core.CH {
					t.Errorf("%d→%d: warmed snapshot served %v, want ch", from, to, chRt.Algorithm)
					return
				}
				dij, err := s.ComputeIn(ctx, sn, from, to, core.Options{Algorithm: core.Dijkstra})
				if err != nil {
					t.Errorf("dijkstra %d→%d: %v", from, to, err)
					return
				}
				if math.Abs(chRt.Cost-dij.Cost) > 1e-9*(1+dij.Cost) {
					t.Errorf("%d→%d: ch %v vs dijkstra %v on one snapshot", from, to, chRt.Cost, dij.Cost)
					return
				}
			}
		}(int64(w + 1))
	}

	// Batch readers: every pair of a batch is priced under one snapshot.
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(5))
		for i := 0; i < 20; i++ {
			pairs := make([]Pair, 8)
			for j := range pairs {
				pairs[j] = Pair{From: graph.NodeID(rng.Intn(n)), To: graph.NodeID(rng.Intn(n))}
			}
			for j, res := range s.ComputeBatchCtx(context.Background(), pairs, core.Options{Algorithm: core.CH}) {
				if res.Err != nil {
					t.Errorf("batch pair %d: %v", j, res.Err)
					return
				}
				if res.Route.Algorithm != core.CH {
					t.Errorf("batch pair %d served by %v, want ch", j, res.Route.Algorithm)
					return
				}
			}
		}
	}()

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("snapshot mutation-stream stress did not finish in 60s")
	}
	close(stop)
	mutWg.Wait()
}

// TestStatsNeverBlockBehindWriter pins the satellite fix: CacheStats,
// CHStats, and Snapshot must stay serviceable while a writer holds the
// publish lock mid-customization. The old RWMutex design made a stats
// scrape queue behind every pending writer; the snapshot design reads
// only counters and the atomic pointer.
func TestStatsNeverBlockBehindWriter(t *testing.T) {
	g := gridgen.MustGenerate(gridgen.Config{K: 8, Model: gridgen.Variance, Seed: 3})
	s := NewService(g)
	if err := s.EnableCH(); err != nil {
		t.Fatal(err)
	}
	// Hold the writer lock, as a slow mutator mid-publish would.
	s.writeMu.Lock()
	done := make(chan struct{})
	go func() {
		defer close(done)
		_, _, _ = s.CacheStats()
		_ = s.CHStats()
		_ = s.Snapshot()
		_ = s.CostGeneration()
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("stats reads blocked behind the writer lock")
	}
	s.writeMu.Unlock()
}
