// Command atis-route computes a single-pair route on a grid or on the
// synthetic Minneapolis map and prints the path, its evaluation, the
// algorithm's work trace, and optionally an ASCII map display.
//
//	atis-route -map mpls -from A -to B -algo astar-euclidean -display
//	atis-route -map grid -k 30 -model variance -from 0 -to 899 -algo dijkstra
//	atis-route -map mpls -from G -to D -compare
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strconv"
	"text/tabwriter"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/graphio"
	"repro/internal/gridgen"
	"repro/internal/mpls"
	"repro/internal/route"
)

func main() {
	var (
		mapKind    = flag.String("map", "mpls", "map to load: mpls | grid")
		k          = flag.Int("k", 30, "grid side for -map grid")
		model      = flag.String("model", "variance", "grid cost model: uniform | variance | skewed")
		seed       = flag.Int64("seed", 1993, "map seed")
		from       = flag.String("from", "A", "source: landmark name or node id")
		to         = flag.String("to", "B", "destination: landmark name or node id")
		algoName   = flag.String("algo", "astar-euclidean", "algorithm: astar-euclidean | astar-manhattan | dijkstra | iterative | bidirectional | ch")
		weight     = flag.Float64("weight", 1, "estimator weight (weighted A*)")
		display    = flag.Bool("display", false, "render an ASCII map with the route")
		directions = flag.Bool("directions", false, "print turn-by-turn guidance")
		compare    = flag.Bool("compare", false, "run every algorithm and compare work")
		loadPath   = flag.String("load", "", "load the map from a graphio file instead of generating it")
		savePath   = flag.String("save", "", "save the generated map to a graphio file and exit")
	)
	flag.Parse()

	var g *graph.Graph
	var err error
	if *loadPath != "" {
		f, err := os.Open(*loadPath)
		if err != nil {
			fatal(err)
		}
		g, err = graphio.Read(f)
		closeErr := f.Close()
		if err != nil {
			fatal(err)
		}
		if closeErr != nil {
			fatal(closeErr)
		}
	} else {
		g, err = loadMap(*mapKind, *k, *model, *seed)
		if err != nil {
			fatal(err)
		}
	}
	if *savePath != "" {
		f, err := os.Create(*savePath)
		if err != nil {
			fatal(err)
		}
		if err := graphio.Write(f, g); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("saved %d nodes, %d edges to %s\n", g.NumNodes(), g.NumEdges(), *savePath)
		return
	}
	svc := route.NewService(g)

	s, err := resolveNode(g, *from)
	if err != nil {
		fatal(err)
	}
	d, err := resolveNode(g, *to)
	if err != nil {
		fatal(err)
	}

	if *compare {
		// The ch row needs the hierarchy: without EnableCH it would
		// answer route.ErrCHDisabled.
		if err := svc.EnableCH(); err != nil {
			fatal(err)
		}
		tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
		fmt.Fprintln(tw, "algorithm\tfound\tcost\titerations\trelaxations\tmax frontier")
		for _, a := range core.Algorithms() {
			r, err := svc.ComputeCtx(context.Background(), s, d, core.Options{Algorithm: a, Weight: *weight})
			if err != nil {
				fatal(err)
			}
			fmt.Fprintf(tw, "%v\t%v\t%.3f\t%d\t%d\t%d\n",
				a, r.Found, r.Cost, r.Trace.Iterations, r.Trace.Relaxations, r.Trace.MaxFrontier)
		}
		tw.Flush()
		return
	}

	algo, err := core.ParseAlgorithm(*algoName)
	if err != nil {
		fatal(err)
	}
	if algo == core.CH {
		// Only EnableCH builds a hierarchy; without it the query would
		// answer route.ErrCHDisabled.
		if err := svc.EnableCH(); err != nil {
			fatal(err)
		}
	}
	r, err := svc.ComputeCtx(context.Background(), s, d, core.Options{Algorithm: algo, Weight: *weight})
	if err != nil {
		fatal(err)
	}
	if !r.Found {
		fmt.Printf("no route from %s to %s\n", *from, *to)
		os.Exit(1)
	}
	fmt.Printf("route %s -> %s via %v\n", *from, *to, r.Algorithm)
	fmt.Printf("  cost: %.3f over %d segments\n", r.Cost, r.Path.Len())
	fmt.Printf("  work: %d iterations, %d relaxations, max frontier %d\n",
		r.Trace.Iterations, r.Trace.Relaxations, r.Trace.MaxFrontier)
	ev, err := svc.EvaluateIn(svc.Snapshot(), r.Path)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("  evaluation: distance %.3f, travel cost %.3f, congestion ratio %.2f\n",
		ev.Distance, ev.CurrentCost, ev.CongestionRatio)
	fmt.Printf("  path: %s\n", r.Path)
	if *directions {
		ins, err := svc.Snapshot().Directions(r.Path)
		if err != nil {
			fatal(err)
		}
		fmt.Println()
		fmt.Print(route.FormatDirections(ins))
	}
	if *display {
		fmt.Println()
		fmt.Print(svc.Snapshot().Display(r.Path, 80, 40))
	}
}

func loadMap(kind string, k int, model string, seed int64) (*graph.Graph, error) {
	switch kind {
	case "mpls":
		return mpls.Generate(mpls.Config{Seed: seed})
	case "grid":
		var m gridgen.CostModel
		switch model {
		case "uniform":
			m = gridgen.Uniform
		case "variance":
			m = gridgen.Variance
		case "skewed":
			m = gridgen.Skewed
		default:
			return nil, fmt.Errorf("unknown cost model %q", model)
		}
		return gridgen.Generate(gridgen.Config{K: k, Model: m, Seed: seed})
	default:
		return nil, fmt.Errorf("unknown map %q (want mpls or grid)", kind)
	}
}

func resolveNode(g *graph.Graph, spec string) (graph.NodeID, error) {
	if id, ok := g.Lookup(spec); ok {
		return id, nil
	}
	n, err := strconv.Atoi(spec)
	if err != nil {
		return 0, fmt.Errorf("%q is neither a landmark nor a node id", spec)
	}
	if n < 0 || n >= g.NumNodes() {
		return 0, fmt.Errorf("node %d out of range [0,%d)", n, g.NumNodes())
	}
	return graph.NodeID(n), nil
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "atis-route: %v\n", err)
	os.Exit(1)
}
