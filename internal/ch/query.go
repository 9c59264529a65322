package ch

import (
	"context"
	"fmt"
	"math"

	"repro/internal/graph"
	"repro/internal/tracing"
)

// ctxCheckInterval is the number of chain steps between ctx.Err()
// polls in QueryCtx, mirroring search.CheckInterval. The two ancestor
// chains a query walks are a few hundred nodes even on the 100x100
// grid, so most runs poll the context at most once beyond the entry
// check. Must be a power of two.
const ctxCheckInterval = 1024

// Result is the outcome of one CH query, mirroring the shape of
// search.Result plus the work counters the telemetry layer records.
type Result struct {
	Found bool
	Path  graph.Path
	Cost  float64
	// Settled counts chain nodes whose upward arcs were scanned, once per
	// direction — the headline comparison against Dijkstra's settled
	// count.
	Settled int
	// Relaxed counts arcs scanned across both directions.
	Relaxed int
}

// QueryCtx computes the exact shortest path from s to d with the
// elimination-tree query of customizable contraction hierarchies, then
// unpacks shortcuts so the returned path walks only original arcs and
// validates like every other kernel's. It is safe for concurrent use;
// steady-state queries allocate only the returned path slice.
//
// Every upward arc leads to an ancestor in the topology's elimination
// tree, so the forward search from s only ever labels s's ancestor chain
// and the backward search from d only d's. The query walks both chains
// bottom-up in rank order with no priority queue: a node's label is
// final once every lower chain node has been scanned, and the shortest
// path peaks at a common ancestor, where the two labels sum to a
// candidate cost.
//
// The chain walk polls ctx.Err() every ctxCheckInterval steps and stops
// with the raw context error (context.Canceled or
// context.DeadlineExceeded) plus the work counters accumulated so far.
// This package deliberately returns context errors untranslated — it
// cannot import internal/search for the typed lifecycle errors without
// an import cycle through the differential test harness — and the route
// service maps them with search.FromContextErr so every layer above sees
// one vocabulary.
//
// Under an active trace the two phases of a query show up as separate
// spans — "ch.search" (the chain walk) and "ch.unpack" (shortcut
// expansion) — so a slow CH request says which half was at fault.
//
//atis:hotpath
func (ix *Index) QueryCtx(ctx context.Context, s, d graph.NodeID) (Result, error) {
	n := ix.topo.n
	if int(s) < 0 || int(s) >= n {
		return Result{}, fmt.Errorf("ch: source %d out of range [0,%d)", s, n)
	}
	if int(d) < 0 || int(d) >= n {
		return Result{}, fmt.Errorf("ch: destination %d out of range [0,%d)", d, n)
	}
	if s == d {
		return Result{Found: true, Path: graph.Path{Nodes: []graph.NodeID{s}}, Cost: 0}, nil
	}
	if err := ctx.Err(); err != nil {
		return Result{}, err
	}

	ws := acquireWorkspace(n)
	defer releaseWorkspace(ws)

	best, meet, settled, relaxed, err := ix.searchCtx(ctx, ws, s, d)
	if err != nil {
		return Result{Cost: math.Inf(1), Settled: settled, Relaxed: relaxed}, err
	}

	if meet == graph.Invalid {
		// Cost +Inf on unreachable, matching search.Result semantics.
		return Result{Cost: math.Inf(1), Settled: settled, Relaxed: relaxed}, nil
	}

	nodes := ix.unpackPath(ctx, ws, meet)
	return Result{
		Found:   true,
		Path:    graph.Path{Nodes: nodes},
		Cost:    best,
		Settled: settled,
		Relaxed: relaxed,
	}, nil
}

// searchCtx walks the ancestor chains of s and d over a prepared
// workspace, returning the best meeting cost and node plus the work
// counters. The chains are merged in rank order: below their lowest
// common ancestor each step advances the lower-ranked chain; from it up
// to the root both advance together and every node is a meeting
// candidate. A node's arcs are scanned only while its label is below the
// best meeting cost, since every path continuing upward costs at least
// the label. The span attrs are set explicitly before each return rather
// than in a deferred closure — a closure capturing the counters would
// allocate even with tracing disabled.
func (ix *Index) searchCtx(ctx context.Context, ws *workspace, s, d graph.NodeID) (best float64, meet graph.NodeID, settled, relaxed int, err error) {
	_, sp := tracing.Start(ctx, "ch.search")
	defer sp.End()

	t, m := ix.topo, ix.metric
	df, db := ws.df, ws.db
	df[s], ws.pf[s] = 0, graph.Invalid
	db[d], ws.pb[d] = 0, graph.Invalid
	inf := math.Inf(1)
	best, meet = inf, graph.Invalid

	steps := 0
	x, y := s, d // the next unscanned node of each chain
	for x != graph.Invalid || y != graph.Invalid {
		if steps++; steps&(ctxCheckInterval-1) == 0 {
			if cerr := ctx.Err(); cerr != nil {
				ws.clearChains(t.parent, x, y)
				sp.SetInt("settled", int64(settled))
				sp.SetInt("relaxed", int64(relaxed))
				return best, meet, settled, relaxed, cerr
			}
		}
		// Advance the lower-ranked chain, or both at a common ancestor,
		// where the two labels are final and sum to a meeting candidate.
		fwd := y == graph.Invalid || (x != graph.Invalid && t.rank[x] <= t.rank[y])
		bwd := x == y || !fwd
		if fwd && bwd {
			if c := df[x] + db[x]; c < best {
				best, meet = c, x
			}
		}
		if fwd {
			if df[x] < best {
				relaxed += t.scanUp(m.up.costs, df, ws.pf, x)
				settled++
			}
			df[x] = inf
			x = t.parent[x]
		}
		if bwd {
			if db[y] < best {
				relaxed += t.scanUp(m.down.costs, db, ws.pb, y)
				settled++
			}
			db[y] = inf
			y = t.parent[y]
		}
	}
	sp.SetInt("settled", int64(settled))
	sp.SetInt("relaxed", int64(relaxed))
	return best, meet, settled, relaxed, nil
}

// scanUp relaxes u's row under one direction's weights (the Metric's up
// weights for the forward search, its down weights for the backward one),
// lowering the labels of the row's heads, and returns the number of arcs
// scanned.
func (t *Topology) scanUp(costs, dist []float64, prev []graph.NodeID, u graph.NodeID) int {
	lo, hi := t.offsets[u], t.offsets[u+1]
	du, cs := dist[u], costs[lo:hi]
	for i, v := range t.heads[lo:hi] {
		if nd := du + cs[i]; nd < dist[v] {
			dist[v], prev[v] = nd, u
		}
	}
	return int(hi - lo)
}

// clearChains puts +Inf back on the forward labels from x and the
// backward labels from y up to their roots: the labels a query stopped
// before x and y can still hold.
func (ws *workspace) clearChains(parent []graph.NodeID, x, y graph.NodeID) {
	for ; x != graph.Invalid; x = parent[x] {
		ws.df[x] = math.Inf(1)
	}
	for ; y != graph.Invalid; y = parent[y] {
		ws.db[y] = math.Inf(1)
	}
}

// unpackPath reconstructs the packed meeting path from the search trees
// and expands its shortcuts into original arcs, returning the exact-size
// node slice — the only allocation of a warm query.
func (ix *Index) unpackPath(ctx context.Context, ws *workspace, meet graph.NodeID) []graph.NodeID {
	_, sp := tracing.Start(ctx, "ch.unpack")
	defer sp.End()

	// Reconstruct the packed meeting path: s → … → meet from the forward
	// tree (reversed in place), then meet → … → d from the backward tree,
	// where a backward parent names the next node toward d.
	packed := ws.packed[:0]
	for u := meet; u != graph.Invalid; u = ws.pf[u] {
		packed = append(packed, u)
	}
	for i, j := 0, len(packed)-1; i < j; i, j = i+1, j-1 {
		packed[i], packed[j] = packed[j], packed[i]
	}
	for u := ws.pb[meet]; u != graph.Invalid; u = ws.pb[u] {
		packed = append(packed, u)
	}
	ws.packed = packed // retain any growth for the next query

	// Unpack into the workspace scratch (shortcut expansion makes the final
	// length unknowable upfront), then copy once into an exact-size result.
	scratch := append(ws.nodes[:0], packed[0])
	for i := 0; i+1 < len(packed); i++ {
		scratch = ix.unpackInto(scratch, packed[i], packed[i+1])
	}
	ws.nodes = scratch // retain any growth for the next query
	nodes := make([]graph.NodeID, len(scratch))
	copy(nodes, scratch)
	sp.SetInt("packed", int64(len(packed)))
	sp.SetInt("nodes", int64(len(nodes)))
	return nodes
}

// unpackInto expands the (possibly shortcut) arc u→w into original arcs,
// appending every node after u to nodes. The arc's customized middle says
// which lower triangle realised its weight under the current metric;
// graph.Invalid means an original edge did, terminating the recursion.
// Depth is bounded by the hierarchy height because a triangle's middle is
// always ranked below both endpoints.
func (ix *Index) unpackInto(nodes []graph.NodeID, u, w graph.NodeID) []graph.NodeID {
	t := ix.topo
	var mid graph.NodeID
	if t.rank[w] > t.rank[u] {
		mid = ix.metric.up.mid[t.findArc(u, w)]
	} else {
		mid = ix.metric.down.mid[t.findArc(w, u)]
	}
	if mid == graph.Invalid {
		return append(nodes, w)
	}
	nodes = ix.unpackInto(nodes, u, mid)
	return ix.unpackInto(nodes, mid, w)
}
