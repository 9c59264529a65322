// Package experiments regenerates every table and figure of the paper's
// evaluation (Section 5), plus the ablation studies DESIGN.md calls out.
// Each experiment measures the in-memory algorithms (iteration counts,
// wall-clock) and the database-resident implementations (block I/O in the
// cost model's time units), prints a paper-style table or ASCII figure, and
// where the paper published numbers, prints them alongside for comparison.
package experiments

import (
	"context"
	"fmt"
	"io"
	"sort"
	"strings"
	"text/tabwriter"
	"time"

	"repro/internal/dbsearch"
	"repro/internal/estimator"
	"repro/internal/graph"
	"repro/internal/search"
)

// RunConfig tunes a harness run.
type RunConfig struct {
	// Reps is the number of repetitions for wall-clock averaging; 0 → 3.
	// Iteration counts and I/O units are deterministic and measured once.
	Reps int
	// Seed drives the stochastic cost models; 0 → 1993.
	Seed int64
	// SkipDB skips the database-resident measurements (fast mode for the
	// biggest sweeps; iteration counts still measured in memory).
	SkipDB bool
}

func (c RunConfig) reps() int {
	if c.Reps <= 0 {
		return 3
	}
	return c.Reps
}

func (c RunConfig) seed() int64 {
	if c.Seed == 0 {
		return 1993
	}
	return c.Seed
}

// Experiment regenerates one table or figure.
type Experiment struct {
	// ID is the handle used by `atis-experiments -run <id>`, e.g. "table5".
	ID string
	// Title describes what the experiment reproduces.
	Title string
	// Run executes it, writing the table/figure to w.
	Run func(w io.Writer, cfg RunConfig) error
}

// All returns every experiment in presentation order.
func All() []Experiment {
	return []Experiment{
		{"figure4", "Synthetic grid workload and benchmark node pairs (Figure 4)", runFigure4},
		{"table5", "Effect of graph size on iterations (Table 5) and execution time (Figure 5)", runTable5},
		{"table6", "Effect of path length on iterations (Table 6) and execution time (Figure 6)", runTable6},
		{"table7", "Effect of edge-cost model on iterations (Table 7) and execution time (Figure 7)", runTable7},
		{"table4b", "Algebraic cost-model estimates (Table 4B)", runTable4B},
		{"figure8", "Minneapolis road map (Figure 8)", runFigure8},
		{"table8", "Minneapolis iterations (Table 8) and execution time (Figure 9)", runTable8},
		{"figure10", "A* versions vs. graph size (Figure 10)", runFigure10},
		{"figure11", "A* versions vs. edge-cost model (Figure 11)", runFigure11},
		{"figure12", "A* versions vs. path length (Figure 12)", runFigure12},
		{"ablation-frontier", "Frontier management: heap vs. scan vs. duplicates (Section 4 design decision)", runAblationFrontier},
		{"ablation-join", "Forced join strategies on the DB engine (Section 4's F choices)", runAblationJoin},
		{"ablation-buffer", "Buffer-pool size sweep on the DB engine", runAblationBuffer},
		{"ablation-weighted", "Weighted A* ε sweep (the paper's optimality/speed tradeoff)", runAblationWeighted},
		{"ablation-bidirectional", "Bidirectional Dijkstra vs. the paper's algorithms", runAblationBidirectional},
		{"ablation-estimators", "Estimator quality on the road map: zero/euclidean/manhattan/ALT", runAblationEstimators},
		{"ablation-kpaths", "Loopless alternate routes via Yen's algorithm", runAblationKPaths},
		{"ablation-economics", "Single-pair vs. closure/all-pairs work (Section 1.2's argument)", runAblationEconomics},
	}
}

// ByID resolves an experiment.
func ByID(id string) (Experiment, bool) {
	for _, e := range All() {
		if strings.EqualFold(e.ID, id) {
			return e, true
		}
	}
	return Experiment{}, false
}

// IDs lists the experiment handles.
func IDs() []string {
	var out []string
	for _, e := range All() {
		out = append(out, e.ID)
	}
	sort.Strings(out)
	return out
}

// memMeasure is one in-memory algorithm measurement.
type memMeasure struct {
	iterations int
	cost       float64
	wall       time.Duration
}

// measureInMemory runs fn reps times, returning its trace and median wall
// time.
func measureInMemory(reps int, fn func() (search.Result, error)) (memMeasure, error) {
	var res search.Result
	var err error
	best := time.Duration(1<<62 - 1)
	for i := 0; i < reps; i++ {
		start := time.Now()
		res, err = fn()
		if err != nil {
			return memMeasure{}, err
		}
		if d := time.Since(start); d < best {
			best = d
		}
	}
	return memMeasure{iterations: res.Trace.Iterations, cost: res.Cost, wall: best}, nil
}

// memAlgorithms is the paper's candidate set against the in-memory engine.
func memAlgorithms(g *graph.Graph, s, d graph.NodeID) map[string]func() (search.Result, error) {
	ctx := context.Background()
	return map[string]func() (search.Result, error){
		"iterative": func() (search.Result, error) { return search.IterativeCtx(ctx, g, s, d) },
		"dijkstra":  func() (search.Result, error) { return search.Dijkstra(g, s, d) },
		"astar-v3":  func() (search.Result, error) { return search.AStarCtx(ctx, g, s, d, estimator.Manhattan()) },
	}
}

// dbMeasure runs one DB-resident algorithm and returns (iterations, time
// units).
func dbMeasure(m *dbsearch.MapDB, s, d graph.NodeID, cfg dbsearch.Config, iterative bool) (int, float64, error) {
	var res dbsearch.Result
	var err error
	if iterative {
		res, err = m.RunIterative(s, d, cfg)
	} else {
		res, err = m.RunBestFirst(s, d, cfg)
	}
	if err != nil {
		return 0, 0, err
	}
	return res.Iterations, res.TimeUnits, nil
}

// table renders rows with aligned columns.
func table(w io.Writer, title string, head []string, rows [][]string) {
	fmt.Fprintf(w, "\n%s\n%s\n", title, strings.Repeat("=", len(title)))
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, strings.Join(head, "\t"))
	for _, r := range rows {
		fmt.Fprintln(tw, strings.Join(r, "\t"))
	}
	tw.Flush()
}

// f1 formats a float with one decimal.
func f1(v float64) string { return fmt.Sprintf("%.1f", v) }

// ms formats a duration in milliseconds with two decimals.
func ms(d time.Duration) string { return fmt.Sprintf("%.2fms", float64(d.Microseconds())/1000) }
