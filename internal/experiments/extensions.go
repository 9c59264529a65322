package experiments

import (
	"context"
	"fmt"
	"io"

	"repro/internal/alt"
	"repro/internal/estimator"
	"repro/internal/mpls"
	"repro/internal/search"
)

// runAblationEstimators compares estimator quality on the road map under
// both cost metrics: the paper's zero/euclidean/manhattan, plus the ALT
// landmark estimator extension. Columns report A* expansions and the cost
// drift against the optimum — "choosing a good estimator is of the utmost
// importance" (Section 5.3), quantified.
func runAblationEstimators(w io.Writer, cfg RunConfig) error {
	for _, metric := range []mpls.Metric{mpls.Distance, mpls.TravelTime} {
		g, _, err := mpls.GenerateWithAtlas(mpls.Config{Seed: cfg.seed(), Metric: metric})
		if err != nil {
			return err
		}
		landmarks, err := alt.SelectLandmarks(g, 4, cfg.seed())
		if err != nil {
			return err
		}
		tables, err := alt.Preprocess(g, landmarks)
		if err != nil {
			return err
		}
		// On travel time, euclidean must be rescaled to minutes-per-mile at
		// the top speed to stay admissible.
		euclid := estimator.Euclidean()
		if metric == mpls.TravelTime {
			euclid = estimator.Scaled(estimator.Euclidean(), 60/mpls.Freeway.SpeedMPH())
		}
		ests := []struct {
			name string
			est  *estimator.Estimator
		}{
			{"zero (dijkstra)", estimator.Zero()},
			{"euclidean", euclid},
			{"manhattan", estimator.Manhattan()},
			{fmt.Sprintf("alt-%d", len(landmarks)), tables.Estimator()},
		}

		var rows [][]string
		for _, pp := range mpls.PaperPaths() {
			s, _ := g.Lookup(pp.From)
			d, _ := g.Lookup(pp.To)
			opt, err := search.Dijkstra(g, s, d)
			if err != nil {
				return err
			}
			row := []string{pp.Name}
			for _, e := range ests {
				res, err := search.AStarCtx(context.Background(), g, s, d, e.est)
				if err != nil {
					return err
				}
				drift := 0.0
				if opt.Cost > 0 {
					drift = (res.Cost/opt.Cost - 1) * 100
				}
				row = append(row, fmt.Sprintf("%d it %+.1f%%", res.Trace.Iterations, drift))
			}
			rows = append(rows, row)
		}
		head := []string{"route"}
		for _, e := range ests {
			head = append(head, e.name)
		}
		table(w, fmt.Sprintf("Ablation: estimator quality on the road map (%s metric; expansions and cost drift)", metric), head, rows)
	}
	fmt.Fprintf(w, "\nALT stays admissible (0.0%% drift) on both metrics and focuses the search\n"+
		"hardest; manhattan is fast but inadmissible; raw geometry carries little\n"+
		"information once costs are travel times.\n")
	return nil
}

// runAblationKPaths shows loopless alternate routes (Yen's algorithm) for
// the Table 8 pairs: the ATIS alternate-route feature built on the paper's
// single-pair machinery.
func runAblationKPaths(w io.Writer, cfg RunConfig) error {
	g := mpls.MustGenerate(mpls.Config{Seed: cfg.seed()})
	var rows [][]string
	for _, pp := range mpls.PaperPaths() {
		s, _ := g.Lookup(pp.From)
		d, _ := g.Lookup(pp.To)
		paths, _, err := search.KShortestCtx(context.Background(), g, s, d, 3)
		if err != nil {
			return err
		}
		row := []string{pp.Name}
		for _, p := range paths {
			row = append(row, fmt.Sprintf("%.2f (%d segs)", p.Cost, p.Path.Len()))
		}
		for len(row) < 4 {
			row = append(row, "-")
		}
		rows = append(rows, row)
	}
	table(w, "Ablation: three best loopless alternates per route (Yen over Dijkstra)",
		[]string{"route", "best", "2nd", "3rd"}, rows)
	return nil
}
