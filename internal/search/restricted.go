package search

import (
	"math"

	"repro/internal/graph"
)

// bounds restricts one best-first search. Every restriction is a plain
// value; none says which caller the search serves.
type bounds struct {
	target graph.NodeID // settling it ends the search; graph.Invalid for none
	cutoff float64      // the largest cost label the search sets; +Inf for none
	// potential is a consistent lower bound on each node's remaining cost
	// to target, added to its cost label to order the heap (A*); nil for
	// none (Dijkstra). A node whose potential is +Inf is never pushed.
	potential   []float64
	bannedNodes []graph.NodeID    // never entered
	bannedArcs  [][2]graph.NodeID // never taken
}

// restricted runs one best-first search from s over g under b, on ws's
// forward label set and heap, which it resets. Every heap pop adds one to
// tr.HeapPops and polls lc with the running total, so searches that share
// one lifecycle and one Trace are bounded together by one expansion
// budget. On return ws.fwd holds the search's labels and tree, and
// ws.settled the nodes it settled, in order. It reports whether target
// was settled.
func (ws *Workspace) restricted(lc *lifecycle, tr *Trace, g *graph.Graph, s graph.NodeID, b bounds) (bool, error) {
	lb, h := &ws.fwd, ws.heap
	lb.reset(g.NumNodes())
	h.Reset()
	ws.settled = ws.settled[:0]
	for _, u := range b.bannedNodes {
		lb.touch(u)
		lb.flags[u] |= flagBanned
	}
	lb.touch(s)
	lb.dist[s] = 0
	h.Push(int(s), 0)
	for {
		if err := lc.poll(int(tr.HeapPops)); err != nil {
			return false, err
		}
		ui, _, ok := h.PopMin()
		if !ok {
			return false, nil
		}
		tr.HeapPops++
		u := graph.NodeID(ui)
		lb.flags[u] |= flagClosed
		ws.settled = append(ws.settled, u)
		if u == b.target {
			return true, nil
		}
		du := lb.dist[u]
		g.Neighbors(u, func(a graph.Arc) {
			v := a.Head
			lb.touch(v)
			nd := du + a.Cost
			if nd >= lb.dist[v] || nd > b.cutoff || lb.flags[v]&(flagClosed|flagBanned) != 0 {
				return
			}
			var hv float64
			if b.potential != nil {
				if hv = b.potential[v]; math.IsInf(hv, 1) {
					return
				}
			}
			for _, arc := range b.bannedArcs {
				if arc == [2]graph.NodeID{u, v} {
					return
				}
			}
			lb.dist[v] = nd
			lb.prev[v] = u
			// Tie-break by −dist, as BestFirstCtx does: under an exact
			// potential the deeper of two equal keys wins, so the search
			// walks straight down the cheapest path.
			h.PushOrUpdateTie(int(v), nd+hv, -nd)
		})
	}
}
