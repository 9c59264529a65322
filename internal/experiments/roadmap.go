package experiments

import (
	"context"
	"fmt"
	"io"

	"repro/internal/asciichart"
	"repro/internal/core"
	"repro/internal/dbsearch"
	"repro/internal/graph"
	"repro/internal/mpls"
	"repro/internal/route"
)

// paperTable8 holds the paper's Minneapolis iteration counts. Note the
// paper's Table 8 header lists iterative first; the row values make clear
// that iterative's 55/51/55/41 are *rounds* while the best-first rows are
// node expansions.
var paperTable8 = map[string]map[string]int{
	"iterative": {"A to B": 55, "C to D": 51, "G to D": 55, "E to F": 41},
	"astar-v3":  {"A to B": 453, "C to D": 266, "G to D": 17, "E to F": 64},
	"dijkstra":  {"A to B": 1058, "C to D": 1006, "G to D": 105, "E to F": 307},
}

// runFigure8 renders the synthetic Minneapolis map with its landmarks.
func runFigure8(w io.Writer, cfg RunConfig) error {
	g := mpls.MustGenerate(mpls.Config{Seed: cfg.seed()})
	svc := route.NewService(g)
	fmt.Fprint(w, svc.Display(graph.Path{}, 80, 40))
	fmt.Fprintf(w, "\nFigure 8: synthetic Minneapolis road map — %d nodes, %d directed edges.\n",
		g.NumNodes(), g.NumEdges())
	fmt.Fprintf(w, "Landmarks A–G mark the Table 8 routes; blank regions are the lakes (lower left)\n")
	fmt.Fprintf(w, "and the river (upper right). The centre grid is the rotated downtown core.\n")
	return nil
}

// runTable8 reproduces Table 8 and Figure 9: the four Minneapolis routes.
func runTable8(w io.Writer, cfg RunConfig) error {
	g := mpls.MustGenerate(mpls.Config{Seed: cfg.seed()})
	paths := mpls.PaperPaths()

	type measured struct {
		iterations map[string]int
		units      map[string]float64
		wall       map[string]string
	}
	results := map[string]measured{}

	var m *dbsearch.MapDB
	if !cfg.SkipDB {
		var err error
		m, err = dbsearch.OpenMap(g, dbsearch.Options{})
		if err != nil {
			return err
		}
	}

	for _, pp := range paths {
		s, ok := g.Lookup(pp.From)
		if !ok {
			return fmt.Errorf("landmark %q missing", pp.From)
		}
		d, ok := g.Lookup(pp.To)
		if !ok {
			return fmt.Errorf("landmark %q missing", pp.To)
		}
		mr := measured{iterations: map[string]int{}, units: map[string]float64{}, wall: map[string]string{}}
		for name, fn := range memAlgorithms(g, s, d) {
			mm, err := measureInMemory(cfg.reps(), fn)
			if err != nil {
				return fmt.Errorf("%s %s: %w", pp.Name, name, err)
			}
			mr.iterations[name] = mm.iterations
			mr.wall[name] = ms(mm.wall)
		}
		if m != nil {
			for _, name := range algoOrder {
				dcfg, iterative := dbConfigFor(name)
				_, units, err := dbMeasure(m, s, d, dcfg, iterative)
				if err != nil {
					return fmt.Errorf("db %s %s: %w", pp.Name, name, err)
				}
				mr.units[name] = units
			}
		}
		results[pp.Name] = mr
	}

	var rows [][]string
	for _, name := range []string{"iterative", "astar-v3", "dijkstra"} {
		row := []string{name}
		for _, pp := range paths {
			row = append(row, fmt.Sprintf("%d (paper %d)", results[pp.Name].iterations[name], paperTable8[name][pp.Name]))
		}
		rows = append(rows, row)
	}
	head := []string{"algorithm"}
	for _, pp := range paths {
		head = append(head, pp.Name)
	}
	table(w, "Table 8: Effect of path length and orientation on iterations (synthetic Minneapolis)", head, rows)
	fmt.Fprintf(w, "\nNote: A* here uses the manhattan estimator (version 3), which is inadmissible on\n"+
		"this map (Section 5.3), so its routes may be slightly suboptimal — as in the paper.\n")

	if m != nil {
		var series []asciichart.Series
		for _, name := range algoOrder {
			s := asciichart.Series{Name: name}
			for i, pp := range paths {
				s.Xs = append(s.Xs, float64(i))
				s.Ys = append(s.Ys, results[pp.Name].units[name])
			}
			series = append(series, s)
		}
		fmt.Fprintln(w)
		fmt.Fprint(w, asciichart.Line(series, asciichart.Options{
			Title: "Figure 9: Minneapolis results (DB engine; 0=A-B, 1=C-D, 2=G-D, 3=E-F)",
			Width: 54, Height: 16, XLabel: "route", YLabel: "time units",
		}))
	}

	// A* optimality drift on the road map: quantify the suboptimality the
	// paper accepts for speed.
	var driftRows [][]string
	for _, pp := range paths {
		s, _ := g.Lookup(pp.From)
		d, _ := g.Lookup(pp.To)
		planner := core.New(g)
		opt, err := planner.RouteCtx(context.Background(), s, d, core.Options{Algorithm: core.Dijkstra})
		if err != nil {
			return err
		}
		man, err := planner.RouteCtx(context.Background(), s, d, core.Options{Algorithm: core.AStarManhattan})
		if err != nil {
			return err
		}
		drift := 0.0
		if opt.Cost > 0 {
			drift = (man.Cost/opt.Cost - 1) * 100
		}
		driftRows = append(driftRows, []string{
			pp.Name, f1(opt.Cost), f1(man.Cost), fmt.Sprintf("%.2f%%", drift),
		})
	}
	table(w, "Manhattan-estimator optimality drift (road map)",
		[]string{"route", "optimal cost", "A*-manhattan cost", "drift"}, driftRows)
	return nil
}
