// Package search implements the in-memory single-pair path-computation
// algorithms of Section 3 of the paper:
//
//   - Iterative — the breadth-first, label-correcting transitive-closure
//     style algorithm of Figure 1. It cannot terminate before exploring the
//     whole reachable graph and its work is insensitive to path length.
//   - Dijkstra — Figure 2: partial transitive closure with one-edge
//     lookahead. Terminates as soon as the destination is selected from the
//     frontier (Lemma 2).
//   - A* — Figure 3: best-first search ordered by actual cost plus an
//     estimator f(u, d). Terminates when the destination is selected; with
//     an admissible estimator the returned path is optimal (Lemma 3).
//
// Beyond the paper's three candidates, the package provides bidirectional
// Dijkstra and weighted A* (via a scaled estimator) as the
// optimality/speed-tradeoff extensions the paper's conclusion proposes, plus
// the frontier-management variants (linear-scan selection, duplicates
// allowed) from the design-decision analysis of Sections 4 and 5.3.
//
// All algorithms return a Result carrying the path, its cost, and a Trace
// with the iteration counts the paper reports: Iterations is frontier
// *rounds* for Iterative and *expansions* (selections of a non-destination
// node) for Dijkstra and A*, matching Tables 5–8.
package search

import (
	"context"
	"fmt"
	"math"
	"time"

	"repro/internal/estimator"
	"repro/internal/graph"
)

// Trace records the work an algorithm performed; the experiment harness
// compares these counters against the paper's tables.
type Trace struct {
	// Iterations is the paper's headline counter: frontier rounds for the
	// Iterative algorithm, node expansions for Dijkstra and A*.
	Iterations int
	// Expansions counts adjacency-list fetches (every node whose neighbours
	// were examined). For Dijkstra/A* it equals Iterations.
	Expansions int
	// Relaxations counts examined edges.
	Relaxations int
	// Improvements counts label decreases (path revisions).
	Improvements int
	// Reopens counts closed nodes whose label later improved — the
	// "backtracking" the paper attributes varying costs to. Non-zero only
	// for label-correcting search or A* with an inadmissible estimator.
	Reopens int
	// MaxFrontier is the high-water mark of the frontier set size.
	MaxFrontier int
	// HeapPushes counts frontier insertions (heap pushes for the best-first
	// algorithms, next-round appends for Iterative).
	HeapPushes uint64
	// HeapPops counts frontier removals (heap pops / round consumption).
	HeapPops uint64
}

// Result is the outcome of a single-pair computation.
type Result struct {
	// Found reports whether any path from source to destination exists.
	Found bool
	// Path is the discovered path (empty when !Found).
	Path graph.Path
	// Cost is the cost of Path; +Inf when !Found.
	Cost float64
	// Trace is the work accounting for this run.
	Trace Trace
}

// validatePair checks endpoints before a run.
func validatePair(g *graph.Graph, s, d graph.NodeID) error {
	n := graph.NodeID(g.NumNodes())
	if s < 0 || s >= n {
		return fmt.Errorf("search: source %d out of range [0,%d)", s, n)
	}
	if d < 0 || d >= n {
		return fmt.Errorf("search: destination %d out of range [0,%d)", d, n)
	}
	return nil
}

// notFound builds the canonical "no path" result.
func notFound(tr Trace) Result {
	return Result{Found: false, Cost: math.Inf(1), Trace: tr}
}

// observeRun forwards a completed run to rec. Callers obtain rec once via
// activeRecorder before starting the clock so a recorder installed mid-run
// never sees half a query, and skip the call entirely (taking no
// timestamps) when recording is disabled.
func observeRun(rec Recorder, algo string, start time.Time, res *Result, err *error) {
	if *err == nil {
		rec.ObserveSearch(algo, time.Since(start).Seconds(), res.Trace)
	}
}

// Iterative runs the breadth-first label-correcting algorithm of Figure 1.
// Every round removes the whole frontier, fetches each member's adjacency
// list, relaxes the out-edges, and inserts improved neighbours into the next
// frontier (duplicate avoidance, the strategy the paper prefers in
// Section 4). The algorithm terminates when the frontier empties, i.e. it
// settles shortest paths from the source to every reachable node, then
// reports the one to d. Requires non-negative edge costs (Lemma 1).
func Iterative(g *graph.Graph, s, d graph.NodeID) (Result, error) {
	return IterativeCtx(context.Background(), g, s, d)
}

// IterativeCtx is Iterative under a request lifecycle: the run polls ctx
// every CheckInterval expansions (amortised, see lifecycle.poll) and
// stops with ErrCanceled, ErrDeadline, or ErrBudget — carrying the
// partial Trace of the abandoned work — as soon as the context dies or
// the expansion budget (WithBudget) runs out. Because the algorithm
// cannot terminate before exploring the whole reachable graph, it is the
// kernel that profits most from a bounded lifecycle.
//
//atis:hotpath
func IterativeCtx(ctx context.Context, g *graph.Graph, s, d graph.NodeID) (res Result, err error) {
	if err := validatePair(g, s, d); err != nil {
		return Result{}, err
	}
	lc, err := newLifecycle(ctx)
	if err != nil {
		return Result{}, err
	}
	if rec := activeRecorder(); rec != nil {
		defer observeRun(rec, "iterative", time.Now(), &res, &err)
	}
	ws := acquireWorkspace(g.NumNodes())
	defer releaseWorkspace(ws)
	lb := &ws.fwd

	lb.touch(s)
	lb.dist[s] = 0
	lb.flags[s] |= flagFrontier
	// Two frontier buffers ping-pong across rounds; the workspace retains
	// their grown backing arrays for the next query.
	frontier := append(ws.frontier[:0], s)
	next := ws.next[:0]

	var tr Trace
	tr.HeapPushes++ // the seed node
	for len(frontier) > 0 {
		tr.Iterations++
		if len(frontier) > tr.MaxFrontier {
			tr.MaxFrontier = len(frontier)
		}
		tr.HeapPops += uint64(len(frontier)) // rounds consume the frontier wholesale
		next = next[:0]
		for _, u := range frontier {
			if err := lc.poll(tr.Expansions); err != nil {
				ws.frontier, ws.next = frontier, next
				return notFound(tr), err
			}
			lb.flags[u] &^= flagFrontier
			tr.Expansions++
			g.Neighbors(u, func(a graph.Arc) {
				tr.Relaxations++
				lb.touch(a.Head)
				nd := lb.dist[u] + a.Cost
				if nd < lb.dist[a.Head] {
					if !math.IsInf(lb.dist[a.Head], 1) && lb.flags[a.Head]&flagFrontier == 0 {
						tr.Reopens++
					}
					lb.dist[a.Head] = nd
					lb.prev[a.Head] = u
					tr.Improvements++
					if lb.flags[a.Head]&flagFrontier == 0 {
						lb.flags[a.Head] |= flagFrontier
						next = append(next, a.Head)
						tr.HeapPushes++
					}
				}
			})
		}
		frontier, next = next, frontier
	}
	ws.frontier, ws.next = frontier, next

	if math.IsInf(lb.distAt(d), 1) {
		return notFound(tr), nil
	}
	return Result{
		Found: true,
		Path:  graph.BuildPath(lb.prev, s, d),
		Cost:  lb.dist[d],
		Trace: tr,
	}, nil
}

// Dijkstra runs the algorithm of Figure 2 with early termination: the run
// stops as soon as the destination is selected from the frontier, at which
// point its label is the shortest-path cost (Lemma 2). Closed nodes are
// never reopened, which is sound for non-negative costs.
func Dijkstra(g *graph.Graph, s, d graph.NodeID) (Result, error) {
	return BestFirst(g, s, d, Options{Estimator: estimator.Zero(), Label: "dijkstra"})
}

// DijkstraCtx is Dijkstra under a request lifecycle (see BestFirstCtx).
func DijkstraCtx(ctx context.Context, g *graph.Graph, s, d graph.NodeID) (Result, error) {
	return BestFirstCtx(ctx, g, s, d, Options{Estimator: estimator.Zero(), Label: "dijkstra"})
}

// AStar runs the best-first algorithm of Figure 3 with the given estimator.
// Following the paper's pseudo-code, a closed node whose label improves is
// reopened (re-enters the frontier); with admissible estimators this never
// happens and the result is optimal, with inadmissible ones (manhattan on a
// road map) it bounds the damage while still not guaranteeing optimality.
func AStar(g *graph.Graph, s, d graph.NodeID, est *estimator.Estimator) (Result, error) {
	return BestFirst(g, s, d, Options{Estimator: est, AllowReopen: true, Label: "astar"})
}

// AStarCtx is AStar under a request lifecycle (see BestFirstCtx).
func AStarCtx(ctx context.Context, g *graph.Graph, s, d graph.NodeID, est *estimator.Estimator) (Result, error) {
	return BestFirstCtx(ctx, g, s, d, Options{Estimator: est, AllowReopen: true, Label: "astar"})
}

// FrontierKind selects the data structure behind "select u from frontierSet
// with minimum cost" — the implementation decision Section 5.3 studies.
type FrontierKind int

const (
	// FrontierHeap uses an indexed binary heap with decrease-key: the
	// efficient main-memory choice.
	FrontierHeap FrontierKind = iota
	// FrontierScan keeps frontier members in a dense array and selects the
	// minimum by a full scan, mirroring the relational implementation where
	// selection is a scan of the open tuples (paper Section 5.3).
	FrontierScan
	// FrontierDuplicates allows duplicate frontier entries (no
	// decrease-key); stale entries are skipped at selection time. This is
	// the "allowing duplicates leads to redundant iterations" strategy of
	// Section 4, kept for the ablation bench.
	FrontierDuplicates
)

// String names the kind for reports.
func (k FrontierKind) String() string {
	switch k {
	case FrontierHeap:
		return "heap"
	case FrontierScan:
		return "scan"
	case FrontierDuplicates:
		return "duplicates"
	default:
		return fmt.Sprintf("FrontierKind(%d)", int(k))
	}
}

// Options configures BestFirst.
type Options struct {
	// Estimator orders the frontier by dist + estimate. nil means the zero
	// estimator, i.e. Dijkstra.
	Estimator *estimator.Estimator
	// Frontier selects the frontier data structure; default FrontierHeap.
	Frontier FrontierKind
	// AllowReopen permits a closed node whose label improves to re-enter
	// the frontier (paper Figure 3 semantics). Dijkstra (Figure 2) keeps it
	// false: its insertion guard checks frontier ∪ explored.
	AllowReopen bool
	// Label names the run for the telemetry Recorder ("dijkstra",
	// "astar-euclidean", …). Empty means "best-first". It has no effect on
	// the computation.
	Label string
}

// BestFirst is the engine behind Dijkstra and AStar: repeatedly select the
// frontier node minimising dist(u) + f(u, d), close it, stop if it is the
// destination, otherwise relax its out-edges.
func BestFirst(g *graph.Graph, s, d graph.NodeID, opts Options) (Result, error) {
	return BestFirstCtx(context.Background(), g, s, d, opts)
}

// BestFirstCtx is BestFirst under a request lifecycle: the run polls ctx
// once per frontier pop (amortised to one ctx.Err() read every
// CheckInterval pops) and stops with ErrCanceled, ErrDeadline, or
// ErrBudget plus the partial Trace as soon as the context dies or the
// expansion budget (WithBudget) runs out.
//
//atis:hotpath
func BestFirstCtx(ctx context.Context, g *graph.Graph, s, d graph.NodeID, opts Options) (res Result, err error) {
	if err := validatePair(g, s, d); err != nil {
		return Result{}, err
	}
	lc, err := newLifecycle(ctx)
	if err != nil {
		return Result{}, err
	}
	if rec := activeRecorder(); rec != nil {
		algo := opts.Label
		if algo == "" {
			algo = "best-first"
		}
		defer observeRun(rec, algo, time.Now(), &res, &err)
	}
	n := g.NumNodes()
	ws := acquireWorkspace(n)
	defer releaseWorkspace(ws)
	lb := &ws.fwd

	front := ws.frontierFor(opts.Frontier, n)
	est := opts.Estimator

	lb.touch(s)
	lb.dist[s] = 0
	front.push(int(s), est.Estimate(g, s, d), 0)

	var tr Trace
	for {
		if err := lc.poll(tr.Expansions); err != nil {
			tr.HeapPushes, tr.HeapPops = front.ops()
			return notFound(tr), err
		}
		if front.len() > tr.MaxFrontier {
			tr.MaxFrontier = front.len()
		}
		ui, ok := front.popMin()
		if !ok {
			tr.HeapPushes, tr.HeapPops = front.ops()
			return notFound(tr), nil
		}
		u := graph.NodeID(ui)
		if lb.flags[u]&flagClosed != 0 && !opts.AllowReopen {
			// Stale duplicate entry (FrontierDuplicates without reopening).
			continue
		}
		lb.flags[u] |= flagClosed
		if u == d {
			tr.HeapPushes, tr.HeapPops = front.ops()
			return Result{
				Found: true,
				Path:  graph.BuildPath(lb.prev, s, d),
				Cost:  lb.dist[d],
				Trace: tr,
			}, nil
		}
		tr.Iterations++
		tr.Expansions++
		g.Neighbors(u, func(a graph.Arc) {
			tr.Relaxations++
			v := a.Head
			lb.touch(v)
			nd := lb.dist[u] + a.Cost
			if nd >= lb.dist[v] {
				return
			}
			if lb.flags[v]&flagClosed != 0 {
				if !opts.AllowReopen {
					return // Figure 2: never revisit explored nodes
				}
				lb.flags[v] &^= flagClosed
				tr.Reopens++
			}
			lb.dist[v] = nd
			lb.prev[v] = u
			tr.Improvements++
			// Tie-break by −dist: among equal f the deeper node wins, so a
			// perfect estimator walks straight to the destination instead of
			// flooding the f-plateau.
			front.pushOrUpdate(int(v), nd+est.Estimate(g, v, d), -nd)
		})
	}
}
