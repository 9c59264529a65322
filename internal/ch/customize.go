package ch

import (
	"fmt"
	"math"

	"repro/internal/graph"
)

// metricHalf carries the customized weights of one direction of the
// skeleton, indexed by the topology's arc positions: costs[p] is the
// current weight of the arc at position p in that direction, mid[p] the
// middle node of the triangle that produced it (graph.Invalid when an
// original edge is the cheapest realisation, in which case unpacking
// terminates at a base arc). A direction the graph cannot realise is
// +Inf.
//
// Middle nodes are metric-dependent — under one cost function a shortcut
// unpacks through one triangle, under another through a different one —
// which is why they live here and not in the Topology.
type metricHalf struct {
	costs []float64
	mid   []graph.NodeID
}

// Metric is the metric-dependent layer of a hierarchy: per skeleton arc,
// an up weight (lower endpoint → upper) and a down weight (upper → lower),
// each with its middle node. A Metric is immutable after Customize and
// safe for concurrent queries; a cost mutation is served by customizing a
// fresh Metric, never by editing one in place (atislint's immutsnapshot
// analyzer checks this mechanically).
//
//atis:immutable
type Metric struct {
	up, down metricHalf
}

// Customize derives a fresh Metric for g's current costs in one bottom-up
// pass over the topology: seed every base-backed weight with its cheapest
// original edge cost, then sweep nodes in contraction order relaxing each
// arc {x, y} of the node x through its lower triangles, both directions
// in one walk over the arc's triangle range:
//
//	up(x,y)   ← min(up(x,y),   w(x→v) + w(v→y))
//	down(x,y) ← min(down(x,y), w(y→v) + w(v→x))
//
// Every constituent hangs off the middle node v, which is ranked below x
// and y — so when the sweep reaches x, every triangle constituent is
// already final, and one pass suffices. This is the whole trick:
// O(triangles) arithmetic instead of re-running ordering, witness
// searches and contraction. Each range lists its middles in contraction
// order, and each direction keeps its own running best that only a
// strictly smaller sum replaces, so an original edge that realises the
// weight beats every triangle, and otherwise the middle is the
// lowest-ranked one realising it.
//
// The same concurrent-mutation contract as Build applies (the route
// service serialises mutations behind its write lock).
func (t *Topology) Customize(g *graph.Graph) (*Metric, error) {
	if !t.Matches(g) {
		return nil, fmt.Errorf("ch: graph (%d nodes, %d edges) does not share the structure of the topology's graph (%d nodes, %d edges); structural rebuild required",
			g.NumNodes(), g.NumEdges(), t.n, t.m)
	}
	// All four arrays come from one length, so one bounds check per index
	// covers every direction's read of it.
	A := len(t.heads)
	up, down := make([]float64, A), make([]float64, A)
	upMid, downMid := make([]graph.NodeID, A), make([]graph.NodeID, A)
	inf := math.Inf(1)
	for p := range up {
		up[p], down[p] = inf, inf
		upMid[p], downMid[p] = graph.Invalid, graph.Invalid
	}

	// Seed base costs through the edge→slot map, min-collapsing parallel
	// edges exactly as any shortest-path computation would.
	ei := 0
	for u := graph.NodeID(0); int(u) < t.n; u++ {
		g.Neighbors(u, func(a graph.Arc) {
			p := t.edgePos[ei]
			ei++
			if p < 0 {
				return // self loop, not represented in the skeleton
			}
			if int(p) < A {
				if a.Cost < up[p] {
					up[p] = a.Cost
				}
			} else if q := p - int32(A); a.Cost < down[q] {
				down[q] = a.Cost
			}
		})
	}

	// Bottom-up triangle relaxation: nodes in contraction order, each
	// node's arcs (both directions) finalized before any arc that could
	// use them as a constituent.
	for r := 0; r < t.n; r++ {
		x := t.order[r]
		lo, hi := t.offsets[x], t.offsets[x+1]
		for p := lo; p < hi; p++ {
			bestUp, midUp := up[p], upMid[p]
			bestDown, midDown := down[p], downMid[p]
			for _, tr := range t.tris[t.triOff[p]:t.triOff[p+1]] {
				if c := down[tr.lo] + up[tr.hi]; c < bestUp {
					bestUp, midUp = c, t.owner[tr.lo]
				}
				if c := down[tr.hi] + up[tr.lo]; c < bestDown {
					bestDown, midDown = c, t.owner[tr.lo]
				}
			}
			up[p], upMid[p] = bestUp, midUp
			down[p], downMid[p] = bestDown, midDown
		}
	}

	return &Metric{up: metricHalf{up, upMid}, down: metricHalf{down, downMid}}, nil
}

// NewIndex customizes g's current costs over the topology and assembles a
// queryable Index — the millisecond-scale replacement for a full Build
// whenever only costs changed.
func (t *Topology) NewIndex(g *graph.Graph) (*Index, error) {
	metric, err := t.Customize(g)
	if err != nil {
		return nil, err
	}
	return &Index{topo: t, metric: metric}, nil
}
