package search

import (
	"context"
	"fmt"
	"math"
	"time"

	"repro/internal/estimator"
	"repro/internal/graph"
)

// SingleSource computes shortest-path costs from s to every node of g with
// Dijkstra's algorithm run to exhaustion (no early termination). The
// returned dist slice holds +Inf at unreachable nodes; prev is the
// shortest-path tree. This is the single-source primitive the paper
// contrasts the single-pair algorithms against, and the oracle used by the
// property tests and by VerifyAdmissible.
func SingleSource(g *graph.Graph, s graph.NodeID) (dist []float64, prev []graph.NodeID) {
	dist, prev, _ = singleSource(g, s, nil)
	return dist, prev
}

// singleSource is SingleSource under an optional request lifecycle: when
// lc is non-nil, the loop polls it for cancel and deadline once per pop,
// without charging the pops against the expansion budget — the caller
// charges a completed pass. A dead context stops the pass with its typed
// lifecycle error and nil slices.
func singleSource(g *graph.Graph, s graph.NodeID, lc *lifecycle) (dist []float64, prev []graph.NodeID, err error) {
	n := g.NumNodes()
	dist = make([]float64, n)
	for i := range dist {
		dist[i] = math.Inf(1)
	}
	prev = make([]graph.NodeID, n)
	for i := range prev {
		prev[i] = graph.Invalid
	}
	if s < 0 || int(s) >= n {
		return dist, prev, nil
	}
	// dist and prev escape to the caller and must be fresh allocations; the
	// heap does not, so it comes from the workspace pool.
	ws := acquireWorkspace(n)
	defer releaseWorkspace(ws)
	h := ws.heap
	dist[s] = 0
	h.Push(int(s), 0)
	for {
		if lc != nil {
			if err := lc.pollCtx(); err != nil {
				return nil, nil, err
			}
		}
		ui, du, ok := h.PopMin()
		if !ok {
			return dist, prev, nil
		}
		u := graph.NodeID(ui)
		g.Neighbors(u, func(a graph.Arc) {
			nd := du + a.Cost
			if nd < dist[a.Head] {
				dist[a.Head] = nd
				prev[a.Head] = u
				h.PushOrUpdate(int(a.Head), nd)
			}
		})
	}
}

// BidirectionalCtx runs Dijkstra simultaneously from the source (forward)
// and from the destination (backward over the reverse graph), stopping
// when the frontiers' combined radius exceeds the best meeting cost. It
// returns the same optimal cost as Dijkstra while typically expanding far
// fewer nodes on long paths — one of the future-work speedups the paper's
// conclusion gestures at. Trace.Iterations counts expansions across both
// directions.
//
// The combined loop polls ctx once per expansion (amortised, see
// lifecycle.poll) and stops with a typed lifecycle error plus the partial
// Trace when the context dies or the expansion budget runs out.
//
//atis:hotpath
func BidirectionalCtx(ctx context.Context, g *graph.Graph, s, d graph.NodeID) (res Result, err error) {
	if err := validatePair(g, s, d); err != nil {
		return Result{}, err
	}
	lc, err := newLifecycle(ctx)
	if err != nil {
		return Result{}, err
	}
	if rec := activeRecorder(); rec != nil {
		defer observeRun(rec, "bidirectional", time.Now(), &res, &err)
	}
	if s == d {
		return Result{Found: true, Path: graph.Path{Nodes: []graph.NodeID{s}}, Cost: 0}, nil
	}
	// ReverseView caches the reverse graph until a cost changes, so a
	// stream of queries under stable traffic shares one reverse instead of
	// paying an O(m) rebuild per call (the last per-query O(m) allocation).
	rg := g.ReverseView()
	n := g.NumNodes()

	ws := acquireWorkspace(n)
	defer releaseWorkspace(ws)
	ws.ensureBackward(n)
	// Forward labels: lbF.prev is the shortest-path tree from s. Backward
	// labels: lbB.prev holds the successor toward d in the original graph.
	lbF, lbB := &ws.fwd, &ws.bwd

	hf := ws.heap
	hb := ws.bh
	lbF.touch(s)
	lbF.dist[s] = 0
	hf.Push(int(s), 0)
	lbB.touch(d)
	lbB.dist[d] = 0
	hb.Push(int(d), 0)

	best := math.Inf(1)
	meet := graph.Invalid
	var tr Trace

	update := func(v graph.NodeID) {
		if total := lbF.distAt(v) + lbB.distAt(v); total < best {
			best = total
			meet = v
		}
	}

	for hf.Len() > 0 || hb.Len() > 0 {
		if err := lc.poll(tr.Expansions); err != nil {
			fs, bs := hf.OpStats(), hb.OpStats()
			tr.HeapPushes = fs.Pushes + bs.Pushes
			tr.HeapPops = fs.Pops + bs.Pops
			return notFound(tr), err
		}
		if combined := hf.Len() + hb.Len(); combined > tr.MaxFrontier {
			tr.MaxFrontier = combined
		}
		// Termination: once the smallest keys on both sides sum to at least
		// the best meeting cost, no better path remains.
		_, pf, okf := hf.Peek()
		_, pb, okb := hb.Peek()
		if !okf {
			pf = math.Inf(1)
		}
		if !okb {
			pb = math.Inf(1)
		}
		if pf+pb >= best {
			break
		}
		// Expand the side with the smaller key (balanced growth).
		if pf <= pb {
			ui, du, _ := hf.PopMin()
			u := graph.NodeID(ui)
			lbF.flags[u] |= flagClosed
			tr.Iterations++
			tr.Expansions++
			g.Neighbors(u, func(a graph.Arc) {
				tr.Relaxations++
				v := a.Head
				lbF.touch(v)
				if lbF.flags[v]&flagClosed != 0 {
					return
				}
				nd := du + a.Cost
				if nd < lbF.dist[v] {
					lbF.dist[v] = nd
					lbF.prev[v] = u
					tr.Improvements++
					hf.PushOrUpdate(int(v), nd)
					update(v)
				}
			})
			update(u)
		} else {
			ui, du, _ := hb.PopMin()
			u := graph.NodeID(ui)
			lbB.flags[u] |= flagClosed
			tr.Iterations++
			tr.Expansions++
			rg.Neighbors(u, func(a graph.Arc) {
				tr.Relaxations++
				v := a.Head
				lbB.touch(v)
				if lbB.flags[v]&flagClosed != 0 {
					return
				}
				nd := du + a.Cost
				if nd < lbB.dist[v] {
					lbB.dist[v] = nd
					lbB.prev[v] = u
					tr.Improvements++
					hb.PushOrUpdate(int(v), nd)
					update(v)
				}
			})
			update(u)
		}
	}

	fs, bs := hf.OpStats(), hb.OpStats()
	tr.HeapPushes = fs.Pushes + bs.Pushes
	tr.HeapPops = fs.Pops + bs.Pops

	if meet == graph.Invalid || math.IsInf(best, 1) {
		return notFound(tr), nil
	}
	// Stitch s → … → meet from the forward tree and meet → … → d from the
	// backward tree's successor pointers into one exact-size slice. Every
	// node on the winning path was touched this query, so the pooled label
	// arrays are safe to follow.
	fwd := 1
	for at := meet; at != s; at = lbF.prev[at] {
		fwd++
	}
	total := fwd
	for at := meet; at != d; at = lbB.prev[at] {
		total++
	}
	nodes := make([]graph.NodeID, total)
	for i, at := fwd-1, meet; i >= 0; i-- {
		nodes[i], at = at, lbF.prev[at]
	}
	for i, at := fwd, meet; i < total; i++ {
		at = lbB.prev[at]
		nodes[i] = at
	}
	return Result{Found: true, Path: graph.Path{Nodes: nodes}, Cost: best, Trace: tr}, nil
}

// WithinCtx computes the budget-bounded reachable set: every node whose
// shortest-path cost from s is at most budget, with those costs. It is
// Dijkstra cut off at the budget — the isochrone ("everywhere within 15
// minutes") query an ATIS answers for trip planning, and a direct payoff of
// early-terminating single-source search: work is proportional to the
// region size, not the map size. The search polls ctx once per pop
// (amortised) and stops with a typed lifecycle error — discarding the
// partial reachable set, which is not meaningful when truncated — when the
// context dies or the expansion budget runs out.
func WithinCtx(ctx context.Context, g *graph.Graph, s graph.NodeID, budget float64) (map[graph.NodeID]float64, error) {
	if s < 0 || int(s) >= g.NumNodes() {
		return nil, fmt.Errorf("search: source %d out of range [0,%d)", s, g.NumNodes())
	}
	if budget < 0 || math.IsNaN(budget) {
		return nil, fmt.Errorf("search: budget %v must be non-negative", budget)
	}
	lc, err := newLifecycle(ctx)
	if err != nil {
		return nil, err
	}
	ws := acquireWorkspace(g.NumNodes())
	defer releaseWorkspace(ws)
	var tr Trace
	if _, err := ws.restricted(&lc, &tr, g, s, bounds{target: graph.Invalid, cutoff: budget}); err != nil {
		return nil, err
	}
	out := make(map[graph.NodeID]float64, len(ws.settled))
	for _, u := range ws.settled {
		out[u] = ws.fwd.dist[u]
	}
	return out, nil
}

// VerifyAdmissible checks an estimator empirically against destination d: it
// computes the true remaining cost h*(u) for every node u (one backward
// Dijkstra over the reverse graph) and returns every node whose estimate
// exceeds h*(u) by more than eps. An empty slice means the estimator is
// admissible for this destination; the paper's Section 5.3 observation that
// manhattan distance is inadmissible on the Minneapolis map is reproduced by
// this check.
func VerifyAdmissible(g *graph.Graph, est *estimator.Estimator, d graph.NodeID, eps float64) []estimator.Violation {
	rg := g.ReverseView()
	trueCost, _ := SingleSource(rg, d)
	var out []estimator.Violation
	for u := graph.NodeID(0); int(u) < g.NumNodes(); u++ {
		if math.IsInf(trueCost[u], 1) {
			continue // unreachable: any finite estimate is fine
		}
		e := est.Estimate(g, u, d)
		if e > trueCost[u]+eps {
			out = append(out, estimator.Violation{U: u, D: d, Estimate: e, TrueCost: trueCost[u]})
		}
	}
	return out
}
