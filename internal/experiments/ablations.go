package experiments

import (
	"context"
	"fmt"
	"io"

	"repro/internal/dbsearch"
	"repro/internal/estimator"
	"repro/internal/gridgen"
	"repro/internal/join"
	"repro/internal/search"
)

// runAblationFrontier compares the in-memory frontier structures of
// Section 4's design discussion: indexed heap (decrease-key), linear scan
// (the relational analogue), and duplicate-tolerant heap.
func runAblationFrontier(w io.Writer, cfg RunConfig) error {
	const k = 30
	g := gridgen.MustGenerate(gridgen.Config{K: k, Model: gridgen.Variance, Seed: cfg.seed()})
	s, d := gridgen.Pair(k, gridgen.Diagonal, cfg.seed())
	kinds := []search.FrontierKind{search.FrontierHeap, search.FrontierScan, search.FrontierDuplicates}

	var rows [][]string
	for _, kind := range kinds {
		mm, err := measureInMemory(cfg.reps(), func() (search.Result, error) {
			return search.BestFirstCtx(context.Background(), g, s, d, search.Options{
				Estimator:   estimator.Manhattan(),
				Frontier:    kind,
				AllowReopen: true,
			})
		})
		if err != nil {
			return err
		}
		rows = append(rows, []string{kind.String(), fmt.Sprintf("%d", mm.iterations), f1(mm.cost), ms(mm.wall)})
	}
	table(w, "Ablation: frontier management for A*-manhattan (30x30, diagonal, 20% variance)",
		[]string{"frontier", "iterations", "cost", "wall"}, rows)
	fmt.Fprintf(w, "\nAll variants return the same optimal cost; duplicates add redundant\n"+
		"iterations (Section 4) and the scan pays O(frontier) per selection.\n")
	return nil
}

// runAblationJoin forces each join strategy for the adjacency fetch on the
// DB engine and reports the resulting I/O, next to the optimizer's pick.
func runAblationJoin(w io.Writer, cfg RunConfig) error {
	const k = 12
	g := gridgen.MustGenerate(gridgen.Config{K: k, Model: gridgen.Variance, Seed: cfg.seed()})
	s, d := gridgen.Pair(k, gridgen.Diagonal, cfg.seed())
	m, err := dbsearch.OpenMap(g, dbsearch.Options{})
	if err != nil {
		return err
	}

	var rows [][]string
	auto, err := m.RunBestFirst(s, d, dbsearch.DijkstraConfig())
	if err != nil {
		return err
	}
	rows = append(rows, []string{"optimizer pick", fmt.Sprintf("%d", auto.Iterations), f1(auto.TimeUnits)})
	for _, strat := range join.Strategies() {
		st := strat
		c := dbsearch.DijkstraConfig()
		c.ForceJoin = &st
		res, err := m.RunBestFirst(s, d, c)
		if err != nil {
			return fmt.Errorf("%v: %w", strat, err)
		}
		rows = append(rows, []string{strat.String(), fmt.Sprintf("%d", res.Iterations), f1(res.TimeUnits)})
	}
	table(w, "Ablation: forced adjacency-join strategy (DB Dijkstra, 12x12 diagonal)",
		[]string{"strategy", "iterations", "time units"}, rows)
	return nil
}

// runAblationBuffer sweeps the buffer-pool size: the same algorithm on the
// same data, from thrashing to fully cached.
func runAblationBuffer(w io.Writer, cfg RunConfig) error {
	const k = 20
	g := gridgen.MustGenerate(gridgen.Config{K: k, Model: gridgen.Variance, Seed: cfg.seed()})
	s, d := gridgen.Pair(k, gridgen.Diagonal, cfg.seed())

	var rows [][]string
	for _, frames := range []int{4, 8, 16, 32, 64, 128} {
		m, err := dbsearch.OpenMap(g, dbsearch.Options{PoolFrames: frames})
		if err != nil {
			return err
		}
		res, err := m.RunBestFirst(s, d, dbsearch.AStarV3Config())
		if err != nil {
			return err
		}
		rows = append(rows, []string{
			fmt.Sprintf("%d", frames),
			fmt.Sprintf("%d", res.IO.Reads),
			fmt.Sprintf("%d", res.IO.Writes),
			fmt.Sprintf("%d", res.PageRequests),
		})
	}
	table(w, "Ablation: buffer-pool size (DB A*-v3, 20x20 diagonal; physical reads fall as frames grow)",
		[]string{"frames", "physical reads", "physical writes", "page requests"}, rows)
	return nil
}

// runAblationWeighted sweeps weighted A*'s ε: the speed/optimality tradeoff
// the paper's conclusion proposes to characterise.
func runAblationWeighted(w io.Writer, cfg RunConfig) error {
	const k = 30
	g := gridgen.MustGenerate(gridgen.Config{K: k, Model: gridgen.Variance, Seed: cfg.seed()})
	s, d := gridgen.Pair(k, gridgen.Diagonal, cfg.seed())
	opt, err := search.Dijkstra(g, s, d)
	if err != nil {
		return err
	}

	var rows [][]string
	for _, weight := range []float64{1, 1.2, 1.5, 2, 3, 5} {
		mm, err := measureInMemory(cfg.reps(), func() (search.Result, error) {
			return search.AStarCtx(context.Background(), g, s, d, estimator.Scaled(estimator.Manhattan(), weight))
		})
		if err != nil {
			return err
		}
		drift := (mm.cost/opt.Cost - 1) * 100
		rows = append(rows, []string{
			fmt.Sprintf("%.1f", weight),
			fmt.Sprintf("%d", mm.iterations),
			f1(mm.cost),
			fmt.Sprintf("%.2f%%", drift),
		})
	}
	table(w, fmt.Sprintf("Ablation: weighted A* (30x30 diagonal; optimal cost %.1f, Dijkstra %d iterations)",
		opt.Cost, opt.Trace.Iterations),
		[]string{"weight ε", "iterations", "cost", "suboptimality"}, rows)
	return nil
}

// runAblationBidirectional compares bidirectional Dijkstra against the
// paper's three algorithms on long paths.
func runAblationBidirectional(w io.Writer, cfg RunConfig) error {
	const k = 30
	g := gridgen.MustGenerate(gridgen.Config{K: k, Model: gridgen.Variance, Seed: cfg.seed()})
	s, d := gridgen.Pair(k, gridgen.Diagonal, cfg.seed())

	ctx := context.Background()
	runs := map[string]func() (search.Result, error){
		"dijkstra":      func() (search.Result, error) { return search.Dijkstra(g, s, d) },
		"astar-v3":      func() (search.Result, error) { return search.AStarCtx(ctx, g, s, d, estimator.Manhattan()) },
		"bidirectional": func() (search.Result, error) { return search.BidirectionalCtx(ctx, g, s, d) },
		"iterative":     func() (search.Result, error) { return search.IterativeCtx(ctx, g, s, d) },
	}
	var rows [][]string
	for _, name := range []string{"dijkstra", "astar-v3", "bidirectional", "iterative"} {
		mm, err := measureInMemory(cfg.reps(), runs[name])
		if err != nil {
			return err
		}
		rows = append(rows, []string{name, fmt.Sprintf("%d", mm.iterations), f1(mm.cost), ms(mm.wall)})
	}
	table(w, "Ablation: bidirectional search (30x30 diagonal, 20% variance)",
		[]string{"algorithm", "iterations", "cost", "wall"}, rows)
	return nil
}
