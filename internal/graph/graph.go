// Package graph provides the directed-graph model used throughout the
// repository: nodes with planar coordinates, directed edges with real-valued
// costs, and compact adjacency storage.
//
// The model follows Section 2 of Shekhar, Kohli and Coyle (ICDE 1993): a
// graph G = (N, E, C) with a node set N, an edge set E ⊆ N×N and a cost
// C(u,v) ∈ ℝ for every edge. Nodes additionally carry (x, y) coordinates
// because the paper's estimator functions (euclidean and manhattan distance)
// are defined over node positions.
//
// Graphs are built with a Builder. The structure (nodes, coordinates, names
// and edges) is immutable afterwards and shared by every Clone; edge costs
// are the one per-graph value, changed through ApplyBatch to model
// real-time travel-time feeds (the ATIS motivation of the paper's
// introduction).
package graph

import (
	"fmt"
	"math"
	"sync/atomic"
)

// NodeID identifies a node. IDs are dense integers in [0, NumNodes).
type NodeID int32

// Invalid is the sentinel NodeID used where "no node" must be represented
// (for example, the predecessor of the source in a shortest-path tree).
const Invalid NodeID = -1

// Arc is one directed edge as seen from its tail node: the head node and the
// traversal cost. Neighbors returns a node's outgoing arcs as []Arc.
type Arc struct {
	Head NodeID
	Cost float64
}

// Edge is a fully-specified directed edge, used when enumerating the edge
// set independent of any particular tail node.
type Edge struct {
	Tail NodeID
	Head NodeID
	Cost float64
}

// Point is a planar coordinate. The paper's maps use arbitrary map units;
// nothing in the library assumes a particular scale.
type Point struct {
	X, Y float64
}

// EuclideanDistance returns the straight-line distance between p and q.
func (p Point) EuclideanDistance(q Point) float64 {
	dx, dy := p.X-q.X, p.Y-q.Y
	return math.Sqrt(dx*dx + dy*dy)
}

// ManhattanDistance returns the L1 distance between p and q.
func (p Point) ManhattanDistance(q Point) float64 {
	return math.Abs(p.X-q.X) + math.Abs(p.Y-q.Y)
}

// Graph is a directed graph in compressed sparse row (CSR) form. The
// structure (node and edge sets, coordinates, names) is immutable once
// built and shared by every Clone; edge costs are the graph's own and
// change only through ApplyBatch, to model dynamic travel times.
type Graph struct {
	// offsets has length NumNodes()+1; the outgoing arcs of node u occupy
	// heads[offsets[u]:offsets[u+1]] and costs[offsets[u]:offsets[u+1]].
	// All fields but costs and rev are the shared structure, never
	// written after Build.
	offsets []int32
	heads   []NodeID
	costs   []float64
	points  []Point
	names   map[string]NodeID // optional landmark names; may be nil
	labels  []string          // reverse of names; empty strings where unnamed

	// rev caches ReverseView's reverse graph for the current costs;
	// ApplyBatch clears it when it changes a cost.
	rev atomic.Pointer[Graph]
}

// NumNodes returns the number of nodes in the graph.
func (g *Graph) NumNodes() int { return len(g.offsets) - 1 }

// NumEdges returns the number of directed edges in the graph. An undirected
// road segment stored as two directed edges counts as two.
func (g *Graph) NumEdges() int { return len(g.heads) }

// valid reports whether u names a node of g.
func (g *Graph) valid(u NodeID) bool { return u >= 0 && int(u) < g.NumNodes() }

// Point returns the coordinates of node u. It panics if u is out of range,
// mirroring slice indexing; callers hold NodeIDs produced by this package.
func (g *Graph) Point(u NodeID) Point { return g.points[u] }

// OutDegree returns the number of outgoing arcs of node u.
func (g *Graph) OutDegree(u NodeID) int {
	return int(g.offsets[u+1] - g.offsets[u])
}

// Neighbors calls fn for every outgoing arc of u, in insertion order. It is
// allocation-free; the search algorithms call it on their hot path.
func (g *Graph) Neighbors(u NodeID, fn func(Arc)) {
	lo, hi := g.offsets[u], g.offsets[u+1]
	for i := lo; i < hi; i++ {
		fn(Arc{Head: g.heads[i], Cost: g.costs[i]})
	}
}

// Arcs returns the outgoing arcs of u as a freshly allocated slice. Prefer
// Neighbors in performance-sensitive code.
func (g *Graph) Arcs(u NodeID) []Arc {
	lo, hi := g.offsets[u], g.offsets[u+1]
	arcs := make([]Arc, 0, hi-lo)
	for i := lo; i < hi; i++ {
		arcs = append(arcs, Arc{Head: g.heads[i], Cost: g.costs[i]})
	}
	return arcs
}

// Edges returns every directed edge of the graph in tail-major order.
func (g *Graph) Edges() []Edge {
	edges := make([]Edge, 0, g.NumEdges())
	for u := NodeID(0); int(u) < g.NumNodes(); u++ {
		lo, hi := g.offsets[u], g.offsets[u+1]
		for i := lo; i < hi; i++ {
			edges = append(edges, Edge{Tail: u, Head: g.heads[i], Cost: g.costs[i]})
		}
	}
	return edges
}

// ArcCost returns the cost of the directed edge (u, v) and whether such an
// edge exists. With parallel edges the cheapest one is reported, matching
// what any shortest-path computation would use.
func (g *Graph) ArcCost(u, v NodeID) (float64, bool) {
	if !g.valid(u) || !g.valid(v) {
		return 0, false
	}
	best, found := math.Inf(1), false
	lo, hi := g.offsets[u], g.offsets[u+1]
	for i := lo; i < hi; i++ {
		if g.heads[i] == v && g.costs[i] < best {
			best, found = g.costs[i], true
		}
	}
	if !found {
		return 0, false
	}
	return best, true
}

// EdgeCostChange is one entry of an ApplyBatch traffic update: the directed
// edge (Tail, Head) either has its cost set to Cost (Scale false) or
// multiplied by Cost (Scale true). Either way the change covers every
// parallel edge of the pair.
type EdgeCostChange struct {
	Tail  NodeID
	Head  NodeID
	Cost  float64
	Scale bool
}

// ApplyBatch applies a burst of edge-cost changes as one update: the whole
// batch is validated up front (no partial application on a bad entry),
// then every change is applied, and the cached ReverseView is dropped if
// any cost changed. It returns the number of entries that changed at least
// one cost; an entry that matches no edge, or sets or scales every edge it
// matches to the cost it already has, is not counted.
//
// Entries are applied in order; later entries targeting the same pair win
// (for Scale entries, compound). Every cost the batch produces must be
// finite and non-negative, compounded products included. A scale factor
// must be positive: a factor of 0 would erase the base cost in a way no
// later factor can undo, short of a reset. For the same reason a product
// of positive factors that underflows a positive cost to 0 is refused,
// whether it builds up within the batch or across batches. ApplyBatch is
// the graph's only cost mutator; it must be serialised against readers by
// the caller.
func (g *Graph) ApplyBatch(changes []EdgeCostChange) (int, error) {
	scales := false
	for _, ch := range changes {
		if ch.Scale && (!(ch.Cost > 0) || math.IsInf(ch.Cost, 0)) {
			return 0, fmt.Errorf("graph: scale factor %v for edge (%d,%d) must be finite and positive", ch.Cost, ch.Tail, ch.Head)
		}
		if ch.Cost < 0 || math.IsNaN(ch.Cost) || math.IsInf(ch.Cost, 0) {
			return 0, fmt.Errorf("graph: cost %v for edge (%d,%d) must be finite and non-negative", ch.Cost, ch.Tail, ch.Head)
		}
		if !g.valid(ch.Tail) || !g.valid(ch.Head) {
			return 0, fmt.Errorf("graph: edge (%d,%d) references unknown node", ch.Tail, ch.Head)
		}
		scales = scales || ch.Scale
	}
	if scales {
		if err := g.checkCompounded(changes); err != nil {
			return 0, err
		}
	}
	applied := 0
	for _, ch := range changes {
		changed := false
		lo, hi := g.offsets[ch.Tail], g.offsets[ch.Tail+1]
		for i := lo; i < hi; i++ {
			if g.heads[i] != ch.Head {
				continue
			}
			c := ch.Cost
			if ch.Scale {
				c *= g.costs[i]
			}
			if c != g.costs[i] {
				g.costs[i] = c
				changed = true
			}
		}
		if changed {
			applied++
		}
	}
	if applied > 0 {
		g.rev.Store(nil)
	}
	return applied, nil
}

// checkCompounded replays a batch on a scratch copy of the costs it
// touches and rejects it if a Scale entry would leave a cost that
// scaledCostOK refuses: each factor is finite and positive, but products
// can still overflow to +Inf or underflow a positive cost to 0, within
// one batch or on top of earlier ones. Set entries are finite by the
// per-entry check. The work is proportional to the edges the batch
// touches.
func (g *Graph) checkCompounded(changes []EdgeCostChange) error {
	pending := make(map[int32]float64, len(changes))
	for _, ch := range changes {
		lo, hi := g.offsets[ch.Tail], g.offsets[ch.Tail+1]
		for i := lo; i < hi; i++ {
			if g.heads[i] != ch.Head {
				continue
			}
			c := ch.Cost
			if ch.Scale {
				cur, ok := pending[i]
				if !ok {
					cur = g.costs[i]
				}
				if c = cur * ch.Cost; !scaledCostOK(cur, c) {
					return fmt.Errorf("graph: scale factor %v for edge (%d,%d) makes its cost %v from %v; a scaled cost must stay finite, and positive if it was", ch.Cost, ch.Tail, ch.Head, c, cur)
				}
			}
			pending[i] = c
		}
	}
	return nil
}

// scaledCostOK reports whether scaling a cost from cur to next keeps it
// usable: finite, and not underflowed from a positive cost to 0, which
// no later factor could undo, short of a reset.
func scaledCostOK(cur, next float64) bool {
	return !math.IsInf(next, 0) && !math.IsNaN(next) && (next > 0 || cur == 0)
}

// MinArcCost returns the smallest edge cost in the graph, or +Inf for a
// graph with no edges. Estimator scaling (converting a distance estimate to
// a travel-time lower bound) uses it.
func (g *Graph) MinArcCost() float64 {
	best := math.Inf(1)
	for _, c := range g.costs {
		if c < best {
			best = c
		}
	}
	return best
}

// TotalCost returns the sum of all edge costs.
func (g *Graph) TotalCost() float64 {
	var sum float64
	for _, c := range g.costs {
		sum += c
	}
	return sum
}

// Name returns the landmark name of node u, or "" if the node is unnamed.
func (g *Graph) Name(u NodeID) string {
	if int(u) >= len(g.labels) {
		return ""
	}
	return g.labels[u]
}

// Lookup resolves a landmark name to its node, reporting whether the name
// exists.
func (g *Graph) Lookup(name string) (NodeID, bool) {
	id, ok := g.names[name]
	return id, ok
}

// NamedNodes returns the map from landmark name to node. The returned map is
// a copy; mutating it does not affect the graph.
func (g *Graph) NamedNodes() map[string]NodeID {
	out := make(map[string]NodeID, len(g.names))
	for k, v := range g.names {
		out[k] = v
	}
	return out
}

// Bounds returns the bounding box of all node coordinates. For an empty
// graph both corners are the origin.
func (g *Graph) Bounds() (min, max Point) {
	if len(g.points) == 0 {
		return Point{}, Point{}
	}
	min = g.points[0]
	max = g.points[0]
	for _, p := range g.points[1:] {
		if p.X < min.X {
			min.X = p.X
		}
		if p.Y < min.Y {
			min.Y = p.Y
		}
		if p.X > max.X {
			max.X = p.X
		}
		if p.Y > max.Y {
			max.Y = p.Y
		}
	}
	return min, max
}

// Clone returns a graph that shares g's structure and owns a copy of its
// costs, so cost changes on the copy do not affect the original. It costs
// one O(E) copy of the cost slice; the route service applies each traffic
// update to a clone of the published snapshot.
func (g *Graph) Clone() *Graph {
	return &Graph{
		offsets: g.offsets,
		heads:   g.heads,
		costs:   append([]float64(nil), g.costs...),
		points:  g.points,
		names:   g.names,
		labels:  g.labels,
	}
}

// SameStructure reports whether g and h share one structure: h is g, or
// one descends from the other, or both from a third graph, through Clone.
// Two graphs built separately never share a structure, however alike.
func (g *Graph) SameStructure(h *Graph) bool { return &g.offsets[0] == &h.offsets[0] }

// Reverse returns a new graph with every edge direction flipped and costs
// preserved. Shortest paths to a fixed destination in g are shortest paths
// from that node in the reverse graph; admissibility checking and
// bidirectional search build on this.
func (g *Graph) Reverse() *Graph {
	n := g.NumNodes()
	b := NewBuilder(n, g.NumEdges())
	for _, p := range g.points {
		b.AddNode(p.X, p.Y)
	}
	for u := NodeID(0); int(u) < n; u++ {
		lo, hi := g.offsets[u], g.offsets[u+1]
		for i := lo; i < hi; i++ {
			b.AddEdge(g.heads[i], u, g.costs[i])
		}
	}
	for name, u := range g.names {
		b.Name(u, name)
	}
	// The inputs came from a valid graph; Build cannot fail.
	rg := b.MustBuild()
	return rg
}

// ReverseView returns the reverse graph, built on first use and cached
// until ApplyBatch changes a cost — the cache that closes the last
// per-query O(m) allocation in bidirectional search.
//
// Concurrent readers may race to build the first reverse after a change;
// both builds are correct and one simply wins the store. Callers must
// uphold the package-wide contract that costs are not mutated concurrently
// with reads (the route service serialises mutations behind its write
// lock), and must treat the returned graph as read-only.
func (g *Graph) ReverseView() *Graph {
	if rg := g.rev.Load(); rg != nil {
		return rg
	}
	rg := g.Reverse()
	g.rev.Store(rg)
	return rg
}

// String summarises the graph for logs and debugging.
func (g *Graph) String() string {
	return fmt.Sprintf("graph(%d nodes, %d edges)", g.NumNodes(), g.NumEdges())
}
