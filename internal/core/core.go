// Package core is the library's public face: a Planner that computes
// single-pair routes over a graph with a selectable algorithm — the paper's
// primary contribution packaged the way a downstream Advanced Traveller
// Information System would call it.
//
//	g := mpls.MustGenerate(mpls.Config{})
//	p := core.New(g)
//	a, _ := g.Lookup("A")
//	b, _ := g.Lookup("B")
//	route, err := p.RouteCtx(ctx, a, b, core.Options{})
//
// A Planner holds nothing but its graph, so it is immutable from the
// caller's point of view — the property the route package's snapshot
// publication relies on. It runs the paper's kernels only: the
// contraction hierarchy (Algorithm CH) needs preprocessing, which the
// route package's Service owns (route.Service.EnableCH).
//
// The default algorithm is A* with the euclidean estimator, which is
// admissible (hence optimal) whenever edge costs dominate straight-line
// distance — true for both the grid benchmarks and the road map. The other
// algorithms of the paper, plus the bidirectional and weighted extensions,
// are one Options field away; the experiments package measures them all.
package core

import (
	"context"
	"errors"
	"fmt"
	"strings"

	"repro/internal/estimator"
	"repro/internal/graph"
	"repro/internal/search"
	"repro/internal/tracing"
)

// Algorithm selects a path-computation algorithm.
type Algorithm int

const (
	// AStarEuclidean is A* with the straight-line-distance estimator: the
	// default, optimal on distance-costed maps.
	AStarEuclidean Algorithm = iota
	// AStarManhattan is A* version 3's estimator: perfect on uniform grids,
	// inadmissible (fast but possibly suboptimal) on road maps.
	AStarManhattan
	// Dijkstra is the estimator-free single-source algorithm with early
	// termination.
	Dijkstra
	// Iterative is the breadth-first transitive-closure-style algorithm; it
	// always explores the whole reachable graph.
	Iterative
	// Bidirectional runs Dijkstra from both endpoints simultaneously.
	Bidirectional
	// CH answers queries over a precomputed contraction hierarchy
	// (internal/ch): per-query work nearly independent of graph size, at
	// the price of a preprocessing pass after every cost change. Only
	// route.Service serves it, from the hierarchy EnableCH builds; a bare
	// Planner rejects it.
	CH
)

// String names the algorithm.
func (a Algorithm) String() string {
	switch a {
	case AStarEuclidean:
		return "astar-euclidean"
	case AStarManhattan:
		return "astar-manhattan"
	case Dijkstra:
		return "dijkstra"
	case Iterative:
		return "iterative"
	case Bidirectional:
		return "bidirectional"
	case CH:
		return "ch"
	default:
		return fmt.Sprintf("Algorithm(%d)", int(a))
	}
}

// Algorithms lists every selectable algorithm.
func Algorithms() []Algorithm {
	return []Algorithm{AStarEuclidean, AStarManhattan, Dijkstra, Iterative, Bidirectional, CH}
}

// ParseAlgorithm resolves a name as printed by String.
func ParseAlgorithm(s string) (Algorithm, error) {
	for _, a := range Algorithms() {
		if strings.EqualFold(s, a.String()) {
			return a, nil
		}
	}
	return 0, fmt.Errorf("core: unknown algorithm %q (want one of %v)", s, Algorithms())
}

// Options tunes a route computation.
type Options struct {
	// Algorithm; the zero value is AStarEuclidean.
	Algorithm Algorithm
	// Weight scales the estimator for the A* algorithms (weighted A*,
	// the speed-versus-optimality knob). 0 means 1; values above 1 bound
	// the returned cost by Weight × optimal.
	Weight float64
	// Frontier selects the frontier data structure for the best-first
	// algorithms (heap by default; scan and duplicate-tolerant variants
	// exist for the paper's design-decision ablations).
	Frontier search.FrontierKind
}

// Route is a computed route with its work accounting.
type Route struct {
	// Found reports whether any path exists.
	Found bool
	// Path is the node sequence (empty when !Found).
	Path graph.Path
	// Cost is the path cost under the graph's current edge costs.
	Cost float64
	// Algorithm is what computed it.
	Algorithm Algorithm
	// Trace is the algorithm's work accounting.
	Trace search.Trace
}

// errCHUnsupported answers Algorithm CH on a bare Planner: the hierarchy
// needs preprocessing, which the route service owns.
var errCHUnsupported = errors.New("core: the ch algorithm needs a prebuilt hierarchy; use route.Service with EnableCH")

// Planner computes routes over one graph. It is safe for concurrent use as
// long as edge costs are not mutated concurrently; the route package's
// Service adds that synchronisation by binding each Planner to an
// immutable published snapshot.
type Planner struct {
	g *graph.Graph
}

// New wraps g. The graph is not copied; the caller promises not to mutate
// edge costs concurrently with computations (the route package keeps that
// promise by giving each snapshot its own Planner over a graph that is
// frozen at publish time).
func New(g *graph.Graph) *Planner { return &Planner{g: g} }

// Graph returns the planner's graph.
func (p *Planner) Graph() *graph.Graph { return p.g }

// RouteCtx computes a route from from to to under opts. Every kernel
// polls ctx from its main loop (see search.CheckInterval) and the call
// returns a typed lifecycle error — search.ErrCanceled,
// search.ErrDeadline, or search.ErrBudget — with partial trace data
// discarded, as soon as the context dies or the expansion budget
// (search.WithBudget) runs out.
//
// Under an active trace the computation shows up as a "kernel" span
// carrying the algorithm and its work counters.
func (p *Planner) RouteCtx(ctx context.Context, from, to graph.NodeID, opts Options) (Route, error) {
	ctx, sp := tracing.Start(ctx, "kernel")
	defer sp.End()
	sp.SetStr("algo", opts.Algorithm.String())
	rt, err := p.routeDispatch(ctx, from, to, opts)
	if err != nil {
		return rt, err
	}
	sp.SetBool("found", rt.Found)
	sp.SetInt("iterations", int64(rt.Trace.Iterations))
	sp.SetInt("expansions", int64(rt.Trace.Expansions))
	return rt, nil
}

// routeDispatch selects and runs the kernel for opts.Algorithm.
func (p *Planner) routeDispatch(ctx context.Context, from, to graph.NodeID, opts Options) (Route, error) {
	var (
		res search.Result
		err error
	)
	switch opts.Algorithm {
	case Iterative:
		res, err = search.IterativeCtx(ctx, p.g, from, to)
	case Dijkstra:
		res, err = search.BestFirstCtx(ctx, p.g, from, to, search.Options{
			Estimator: estimator.Zero(),
			Frontier:  opts.Frontier,
			Label:     opts.Algorithm.String(),
		})
	case Bidirectional:
		res, err = search.BidirectionalCtx(ctx, p.g, from, to)
	case AStarEuclidean, AStarManhattan:
		est := estimator.Euclidean()
		if opts.Algorithm == AStarManhattan {
			est = estimator.Manhattan()
		}
		if opts.Weight != 0 && opts.Weight != 1 {
			est = estimator.Scaled(est, opts.Weight)
		}
		res, err = search.BestFirstCtx(ctx, p.g, from, to, search.Options{
			Estimator:   est,
			Frontier:    opts.Frontier,
			AllowReopen: true,
			Label:       opts.Algorithm.String(),
		})
	case CH:
		return Route{}, errCHUnsupported
	default:
		return Route{}, fmt.Errorf("core: unknown algorithm %v", opts.Algorithm)
	}
	if err != nil {
		return Route{}, err
	}
	return Route{
		Found:     res.Found,
		Path:      res.Path,
		Cost:      res.Cost,
		Algorithm: opts.Algorithm,
		Trace:     res.Trace,
	}, nil
}
