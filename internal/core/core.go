// Package core is the library's public face: a Planner that computes
// single-pair routes over a graph with a selectable algorithm — the paper's
// primary contribution packaged the way a downstream Advanced Traveller
// Information System would call it.
//
//	g := mpls.MustGenerate(mpls.Config{})
//	p, err := core.New(g)
//	route, err := p.RouteByName("A", "B", core.Options{})
//
// Construction is configured with functional options rather than ad-hoc
// setters: core.New(g, core.WithCH(), core.WithTracer(t)) readies the
// contraction hierarchy eagerly and attaches a tracer in one call, so a
// fully-configured Planner is immutable from the caller's point of view —
// the property the route package's snapshot publication relies on.
//
// The default algorithm is A* with the euclidean estimator, which is
// admissible (hence optimal) whenever edge costs dominate straight-line
// distance — true for both the grid benchmarks and the road map. The other
// algorithms of the paper, plus the bidirectional and weighted extensions,
// are one Options field away; the experiments package measures them all.
package core

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/ch"
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
	// the price of a preprocessing pass after every cost change. The
	// Planner builds the hierarchy lazily on first use and rebuilds
	// synchronously when edge costs have changed; the route service layers
	// background rebuilds with Dijkstra fallback on top.
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

// Planner computes routes over one graph. It is safe for concurrent use as
// long as edge costs are not mutated concurrently; the route package's
// Service adds that synchronisation by binding each Planner to an
// immutable published snapshot.
type Planner struct {
	g *graph.Graph

	// tracer, when set via WithTracer, gives work the Planner starts on
	// its own (the lazy CH build) a trace of its own; request-path spans
	// ride the caller's context and need no tracer here. A nil tracer is
	// disabled — every tracing call is nil-safe.
	tracer *tracing.Tracer

	// Contraction-hierarchy state for the CH algorithm: the index is built
	// lazily on first use and keyed on the graph's CostVersion. chMu
	// serialises builds so concurrent first queries trigger exactly one.
	chIdx atomic.Pointer[ch.Index]
	chMu  sync.Mutex
}

// PlannerOption configures a Planner at construction. Options are applied
// in the order given; put WithTracer before WithCH so the eager hierarchy
// build it triggers is traced.
type PlannerOption func(*Planner) error

// WithCH readies the contraction hierarchy eagerly, so the first
// Algorithm: CH route is served by the index instead of paying the
// structural contraction on a query path.
func WithCH() PlannerOption {
	return func(p *Planner) error {
		_, err := p.CHIndex()
		return err
	}
}

// WithTracer attaches a tracer for the work the Planner starts on its own
// (the lazy or eager CH build). Request-path spans attach to the span
// already in the caller's context and do not need it.
func WithTracer(t *tracing.Tracer) PlannerOption {
	return func(p *Planner) error {
		p.tracer = t
		return nil
	}
}

// New wraps g, applying options in order. The graph is not copied; the
// caller promises not to mutate edge costs concurrently with computations
// (the route package keeps that promise by giving each snapshot its own
// Planner over a graph that is frozen at publish time). New fails only
// when a fallible option (WithCH on an empty graph) does.
func New(g *graph.Graph, opts ...PlannerOption) (*Planner, error) {
	p := &Planner{g: g}
	for _, o := range opts {
		if err := o(p); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// MustNew is New, panicking on option failure — for construction sites
// whose options are statically known to be infallible.
func MustNew(g *graph.Graph, opts ...PlannerOption) *Planner {
	p, err := New(g, opts...)
	if err != nil {
		panic(fmt.Sprintf("core: MustNew: %v", err))
	}
	return p
}

// Graph returns the planner's graph.
func (p *Planner) Graph() *graph.Graph { return p.g }

// Route computes a route from from to to under opts.
func (p *Planner) Route(from, to graph.NodeID, opts Options) (Route, error) {
	return p.RouteCtx(context.Background(), from, to, opts)
}

// RouteCtx is Route under a request lifecycle: every kernel polls ctx
// from its main loop (see search.CheckInterval) and the call returns a
// typed lifecycle error — search.ErrCanceled, search.ErrDeadline, or
// search.ErrBudget — with partial trace data discarded, as soon as the
// context dies or the expansion budget (search.WithBudget) runs out.
//
// Under an active trace the computation shows up as a "kernel" span
// carrying the algorithm and its work counters; the CH path nests its
// search and unpack phases beneath it.
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
		return p.routeCH(ctx, from, to)
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

// CHIndex returns the planner's contraction hierarchy for the graph's
// current cost version, readying it if needed. The first call pays a
// structural contraction; afterwards the topology is cached and a cost
// mutation only costs a metric customization, so even the synchronous
// refresh here is milliseconds. Callers who cannot afford the first
// build on a query path (the route service) maintain their own index and
// use the planner only for fallback.
func (p *Planner) CHIndex() (*ch.Index, error) {
	want := p.g.CostVersion()
	if ix := p.chIdx.Load(); ix != nil && ix.CostVersion() == want {
		return ix, nil
	}
	p.chMu.Lock()
	defer p.chMu.Unlock()
	// Re-check under the lock: another goroutine may have readied the
	// index while we waited, and the version may have moved again.
	want = p.g.CostVersion()
	if ix := p.chIdx.Load(); ix != nil && ix.CostVersion() == want {
		return ix, nil
	}
	if old := p.chIdx.Load(); old != nil && old.Topology().Matches(p.g) {
		ix, err := old.Topology().NewIndex(p.g)
		if err != nil {
			return nil, err
		}
		p.chIdx.Store(ix)
		return ix, nil
	}
	// The structural contraction is the Planner's one self-started heavy
	// phase; under WithTracer it gets a trace of its own.
	_, tr := p.tracer.StartBackground("core.ch.build")
	ix, err := ch.Build(p.g, ch.Options{})
	p.tracer.Finish(tr)
	if err != nil {
		return nil, err
	}
	p.chIdx.Store(ix)
	return ix, nil
}

// routeCH answers via the contraction hierarchy. Settled nodes map onto the
// trace's expansion counters so the experiment harness and /stats compare
// CH work against the other kernels on the same axis. The ch package
// returns raw context errors; FromContextErr folds them into the search
// package's typed vocabulary so callers handle one error set.
func (p *Planner) routeCH(ctx context.Context, from, to graph.NodeID) (Route, error) {
	ix, err := p.CHIndex()
	if err != nil {
		return Route{}, err
	}
	res, err := ix.QueryCtx(ctx, from, to)
	if err != nil {
		return Route{}, search.FromContextErr(err)
	}
	return Route{
		Found:     res.Found,
		Path:      res.Path,
		Cost:      res.Cost,
		Algorithm: CH,
		Trace: search.Trace{
			Iterations:  res.Settled,
			Expansions:  res.Settled,
			Relaxations: res.Relaxed,
		},
	}, nil
}

// RouteByName computes a route between named landmarks.
func (p *Planner) RouteByName(from, to string, opts Options) (Route, error) {
	s, ok := p.g.Lookup(from)
	if !ok {
		return Route{}, fmt.Errorf("core: unknown landmark %q", from)
	}
	d, ok := p.g.Lookup(to)
	if !ok {
		return Route{}, fmt.Errorf("core: unknown landmark %q", to)
	}
	return p.Route(s, d, opts)
}
