package route

import (
	"context"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/gridgen"
)

// TestConcurrentQueriesAndTraffic hammers the service with parallel route
// queries (cache hits and misses) interleaved with traffic mutations, under
// the invariant that the writer only ever toggles the network between
// free-flow and everything-doubled. Any served route must therefore cost
// exactly base or 2×base on the same node sequence — a stale cache entry
// (route priced under a generation that no longer matches the costs that
// produced it in a way that breaks the toggle invariant) or a torn read
// would break the assertion, and `go test -race` checks the memory model.
func TestConcurrentQueriesAndTraffic(t *testing.T) {
	const k = 10
	s := NewService(gridgen.MustGenerate(gridgen.Config{K: k, Model: gridgen.Variance, Seed: 42}))

	type pair struct{ from, to graph.NodeID }
	pairs := []pair{
		{0, graph.NodeID(k*k - 1)},
		{graph.NodeID(k - 1), graph.NodeID(k * (k - 1))},
		{0, graph.NodeID(k * (k - 1))},
		{graph.NodeID(k / 2), graph.NodeID(k*k - 1)},
	}
	baseCost := map[pair]float64{}
	for _, p := range pairs {
		r, err := s.ComputeCtx(context.Background(), p.from, p.to, core.Options{Algorithm: core.Dijkstra})
		if err != nil || !r.Found {
			t.Fatalf("baseline %v: %v found=%v", p, err, r.Found)
		}
		baseCost[p] = r.Cost
	}

	min, max := s.Graph().Bounds()
	center := graph.Point{X: (min.X + max.X) / 2, Y: (min.Y + max.Y) / 2}

	const (
		readers      = 8
		queriesEach  = 200
		writerRounds = 50
	)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	fail := make(chan string, 1)
	report := func(msg string) {
		select {
		case fail <- msg:
		default:
		}
	}

	// Single writer toggling free-flow ↔ everything ×2. One writer keeps the
	// network state space to exactly two generations' worth of costs, which
	// is what makes the readers' assertion exact.
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(stop)
		for i := 0; i < writerRounds; i++ {
			if _, err := s.ApplyRegionCongestionCtx(context.Background(), center, 1e9, 2); err != nil {
				report("writer: " + err.Error())
				return
			}
			s.ResetTrafficCtx(context.Background())
		}
	}()

	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for i := 0; i < queriesEach; i++ {
				p := pairs[(seed+i)%len(pairs)]
				rt, err := s.ComputeCtx(context.Background(), p.from, p.to, core.Options{Algorithm: core.Dijkstra})
				if err != nil {
					report("reader: " + err.Error())
					return
				}
				if !rt.Found {
					report("reader: route vanished")
					return
				}
				want := baseCost[p]
				if rt.Cost != want && rt.Cost != 2*want {
					report("reader: impossible cost (stale cache?)")
					return
				}
			}
		}(r)
	}
	wg.Wait()
	select {
	case msg := <-fail:
		t.Fatal(msg)
	default:
	}

	// After the writer's final ResetTrafficCtx the network is at free flow:
	// every pair must price at exactly base cost, never a stale doubled one.
	<-stop
	for _, p := range pairs {
		rt, err := s.ComputeCtx(context.Background(), p.from, p.to, core.Options{Algorithm: core.Dijkstra})
		if err != nil || rt.Cost != baseCost[p] {
			t.Fatalf("final state %v: cost=%v err=%v, want %v", p, rt.Cost, err, baseCost[p])
		}
	}
}

// TestConcurrentBatchAndTraffic exercises ComputeBatchCtx's worker pool while
// traffic mutates underneath it.
func TestConcurrentBatchAndTraffic(t *testing.T) {
	const k = 8
	s := NewService(gridgen.MustGenerate(gridgen.Config{K: k, Model: gridgen.Uniform, Seed: 9}))
	pairs := make([]Pair, 0, 32)
	for i := 0; i < 32; i++ {
		pairs = append(pairs, Pair{From: graph.NodeID(i % (k * k)), To: graph.NodeID((i * 7) % (k * k))})
	}

	min, max := s.Graph().Bounds()
	center := graph.Point{X: (min.X + max.X) / 2, Y: (min.Y + max.Y) / 2}

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			if _, err := s.ApplyRegionCongestionCtx(context.Background(), center, 1e9, 1.5); err != nil {
				t.Error(err)
				return
			}
			s.ResetTrafficCtx(context.Background())
		}
	}()
	for i := 0; i < 10; i++ {
		for _, res := range s.ComputeBatchCtx(context.Background(), pairs, core.Options{}) {
			if res.Err != nil {
				t.Fatal(res.Err)
			}
			if !res.Route.Found {
				t.Fatal("batch route not found")
			}
		}
	}
	wg.Wait()
}
