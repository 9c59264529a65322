package experiments

import (
	"context"
	"fmt"
	"io"
	"time"

	"repro/internal/closure"
	"repro/internal/estimator"
	"repro/internal/gridgen"
	"repro/internal/search"
)

// runAblationEconomics quantifies the paper's framing argument (Section
// 1.2): traditional transitive-closure and all-pairs methods "compute many
// more paths beyond the single pair path that is of interest to ATIS". For
// one query, it runs the closure family against a single A* and reports
// wall time and the number of questions each answer covers.
func runAblationEconomics(w io.Writer, cfg RunConfig) error {
	const k = 12
	g := gridgen.MustGenerate(gridgen.Config{K: k, Model: gridgen.Variance, Seed: cfg.seed()})
	s, d := gridgen.Pair(k, gridgen.Horizontal, cfg.seed())
	n := g.NumNodes()

	timeIt := func(fn func()) time.Duration {
		best := time.Duration(1<<62 - 1)
		for i := 0; i < cfg.reps(); i++ {
			start := time.Now()
			fn()
			if e := time.Since(start); e < best {
				best = e
			}
		}
		return best
	}

	var rows [][]string
	add := func(name string, answers int, d time.Duration) {
		rows = append(rows, []string{name, fmt.Sprintf("%d", answers), ms(d)})
	}

	add("iterative closure", n*n, timeIt(func() { closure.Iterative(g) }))
	add("logarithmic closure", n*n, timeIt(func() { closure.Logarithmic(g) }))
	add("warren closure", n*n, timeIt(func() { closure.Warren(g) }))
	add("dfs closure", n*n, timeIt(func() { closure.DFS(g) }))
	add("floyd-warshall (costs)", n*n, timeIt(func() { closure.AllPairs(g) }))
	add("single-source dijkstra", n, timeIt(func() { search.SingleSource(g, s) }))
	add("single-pair A* (manhattan)", 1, timeIt(func() {
		if _, err := search.AStarCtx(context.Background(), g, s, d, estimator.Manhattan()); err != nil {
			panic(err)
		}
	}))

	table(w, fmt.Sprintf("Ablation: the single-pair economics (one %d-node grid, horizontal query)", n),
		[]string{"method", "pairs answered", "wall (best of reps)"}, rows)
	fmt.Fprintf(w, "\nThe ATIS question is one pair. All-pairs methods answer %d questions to\n"+
		"serve one; single-source answers %d; A* answers exactly the one asked —\n"+
		"Section 1.2's argument, measured.\n", n*n, n)
	return nil
}
