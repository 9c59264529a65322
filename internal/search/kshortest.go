package search

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strconv"

	"repro/internal/graph"
)

// KShortestCtx returns up to k loopless paths from s to d in increasing
// cost order, by Yen's algorithm. Alternate routes are a staple ATIS
// feature — the traveller picks among the best few routes, trading
// distance against familiarity — and a natural extension of the paper's
// single-pair computation.
//
// The first path is Dijkstra's. Every spur search is the paper's A*
// (Figure 3) under the exact potential h*(u): the cost from u to d on the
// unrestricted graph, computed once, when k > 1, by a backward
// SingleSource over the reverse graph. Yen's restrictions only remove
// arcs, so h* stays a consistent lower bound in every spur search, and a
// node that cannot reach d at all is never pushed. One lifecycle polls
// ctx and counts heap pops across the whole request, so the expansion
// budget (WithBudget) bounds the request, not each spur. The backward
// pass polls ctx too, but its pops are charged only once it completes.
//
// The result is empty when no path exists. Ties are returned in a
// deterministic order. The returned Trace accounts for the whole request,
// also when it stops with a lifecycle error: HeapPops counts every heap
// pop, a completed backward pass's included, and Iterations the spur
// searches.
func KShortestCtx(ctx context.Context, g *graph.Graph, s, d graph.NodeID, k int) ([]Result, Trace, error) {
	var tr Trace
	if err := validatePair(g, s, d); err != nil {
		return nil, tr, err
	}
	if k <= 0 {
		return nil, tr, fmt.Errorf("search: k = %d, want at least 1", k)
	}
	lc, err := newLifecycle(ctx)
	if err != nil {
		return nil, tr, err
	}
	ws := acquireWorkspace(g.NumNodes())
	defer releaseWorkspace(ws)
	b := bounds{target: d, cutoff: math.Inf(1)}

	// continuation searches from root's last node under b and returns
	// root's interior followed by the path found, priced rootCost plus
	// the search's cost.
	continuation := func(root []graph.NodeID, rootCost float64) (Result, error) {
		interior := root[: len(root)-1 : len(root)-1] // append must copy
		b.bannedNodes = interior
		found, err := ws.restricted(&lc, &tr, g, root[len(root)-1], b)
		if !found || err != nil {
			return Result{}, err
		}
		nodes := append(interior, graph.BuildPath(ws.fwd.prev, root[len(root)-1], d).Nodes...)
		return Result{Found: true, Path: graph.Path{Nodes: nodes}, Cost: rootCost + ws.fwd.dist[d]}, nil
	}

	first, err := continuation([]graph.NodeID{s}, 0)
	if !first.Found || err != nil {
		return nil, tr, err
	}
	if k > 1 {
		b.potential, _, err = singleSource(g.ReverseView(), d, &lc)
		if err != nil {
			return nil, tr, err
		}
		// The backward pass popped each node that reaches d exactly once.
		for _, c := range b.potential {
			if !math.IsInf(c, 1) {
				tr.HeapPops++
			}
		}
	}
	accepted := []Result{first}
	seen := map[string]bool{pathKey(first.Path): true}
	type candidate struct {
		Result
		key string
	}
	var candidates []candidate

	for len(accepted) < k {
		prev := accepted[len(accepted)-1].Path.Nodes
		// Each node of the previous path except the destination serves as a
		// spur node; rootCost prices the root the way Path.CostIn does.
		rootCost := 0.0
		for j := 0; j+1 < len(prev); j++ {
			if j > 0 {
				c, _ := g.ArcCost(prev[j-1], prev[j])
				rootCost += c
			}
			root := prev[:j+1]
			// Ban the outgoing edges that previously-accepted paths with
			// the same root take from the spur node, and the root's interior
			// nodes, forcing a genuinely new continuation.
			b.bannedArcs = b.bannedArcs[:0]
			for _, a := range accepted {
				nodes := a.Path.Nodes
				if len(nodes) > j+1 && equalPrefix(nodes, root) {
					b.bannedArcs = append(b.bannedArcs, [2]graph.NodeID{nodes[j], nodes[j+1]})
				}
			}
			tr.Iterations++
			cand, err := continuation(root, rootCost)
			if err != nil {
				return nil, tr, err
			}
			if !cand.Found {
				continue
			}
			if key := pathKey(cand.Path); !seen[key] {
				seen[key] = true
				candidates = append(candidates, candidate{cand, key})
			}
		}
		if len(candidates) == 0 {
			break
		}
		// Deterministic extraction: cheapest candidate, ties by node
		// sequence.
		sort.Slice(candidates, func(i, j int) bool {
			if candidates[i].Cost != candidates[j].Cost {
				return candidates[i].Cost < candidates[j].Cost
			}
			return candidates[i].key < candidates[j].key
		})
		accepted = append(accepted, candidates[0].Result)
		candidates = candidates[1:]
	}
	return accepted, tr, nil
}

// pathKey canonicalises a path for dedup.
func pathKey(p graph.Path) string {
	buf := make([]byte, 0, 6*len(p.Nodes))
	for _, u := range p.Nodes {
		buf = append(strconv.AppendInt(buf, int64(u), 10), ',')
	}
	return string(buf)
}

func equalPrefix(nodes, prefix []graph.NodeID) bool {
	if len(nodes) < len(prefix) {
		return false
	}
	for i := range prefix {
		if nodes[i] != prefix[i] {
			return false
		}
	}
	return true
}
