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
// Graphs are built with a Builder and are immutable in structure afterwards;
// edge costs may be updated in place to model real-time travel-time feeds
// (the ATIS motivation of the paper's introduction).
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
// structure (node and edge sets) is immutable once built; edge costs may be
// updated through SetArcCost and UpdateEdgeCost to model dynamic travel
// times.
type Graph struct {
	// offsets has length NumNodes()+1; the outgoing arcs of node u occupy
	// heads[offsets[u]:offsets[u+1]] and costs[offsets[u]:offsets[u+1]].
	offsets []int32
	heads   []NodeID
	costs   []float64
	points  []Point
	names   map[string]NodeID // optional landmark names; may be nil
	labels  []string          // reverse of names; empty strings where unnamed

	// costVersion counts cost mutations; ReverseView uses it to decide
	// whether its cached reverse graph still reflects the current costs.
	costVersion atomic.Uint64
	rev         atomic.Pointer[reverseSnapshot]
}

// reverseSnapshot pairs a built reverse graph with the cost version it was
// built under. Once stored in g.rev it is shared by every concurrent
// reader, so it is never edited in place — a cost change publishes a whole
// new snapshot.
//
//atis:immutable
type reverseSnapshot struct {
	version uint64
	g       *Graph
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

// SetArcCost sets the cost of every parallel directed edge (u, v) to c and
// reports whether at least one such edge exists. Costs must be non-negative;
// the search algorithms' optimality lemmas (paper Lemmas 1–3) require it.
func (g *Graph) SetArcCost(u, v NodeID, c float64) (bool, error) {
	if c < 0 || math.IsNaN(c) {
		return false, fmt.Errorf("graph: cost %v for edge (%d,%d) must be non-negative", c, u, v)
	}
	if !g.valid(u) || !g.valid(v) {
		return false, fmt.Errorf("graph: edge (%d,%d) references unknown node", u, v)
	}
	found := false
	lo, hi := g.offsets[u], g.offsets[u+1]
	for i := lo; i < hi; i++ {
		if g.heads[i] == v {
			g.costs[i] = c
			found = true
		}
	}
	if found {
		g.costVersion.Add(1)
	}
	return found, nil
}

// CostVersion returns the number of cost mutations applied to the graph
// since construction. Two reads returning the same version bracket a window
// in which every edge cost was stable.
func (g *Graph) CostVersion() uint64 { return g.costVersion.Load() }

// EdgeCostChange is one entry of an ApplyBatch traffic update: the directed
// edge (Tail, Head) either has its cost set to Cost (Scale false) or
// multiplied by Cost (Scale true). Either way the change covers every
// parallel edge of the pair, matching SetArcCost and ScaleArcCost.
type EdgeCostChange struct {
	Tail  NodeID
	Head  NodeID
	Cost  float64
	Scale bool
}

// ApplyBatch applies a burst of edge-cost changes atomically with respect
// to version accounting: the whole batch is validated up front (no partial
// application on a bad entry), every change is applied, and costVersion is
// bumped exactly once if anything changed — so version-keyed consumers
// (ReverseView, a ch.Metric, the route cache) invalidate once per batch
// instead of once per edge. It returns the number of changes that matched
// at least one edge.
//
// Entries are applied in order; later entries targeting the same pair win
// (for Scale entries, compound). Every cost the batch produces must be
// finite and non-negative, compounded products included. A scale factor
// must be positive: a factor of 0 would erase the base cost in a way no
// later factor can undo, short of a reset. For the same reason a product
// of positive factors that underflows a positive cost to 0 is refused,
// whether it builds up within the batch or across batches. Like all cost
// mutators, ApplyBatch must be serialised against readers by the caller.
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
		found := false
		lo, hi := g.offsets[ch.Tail], g.offsets[ch.Tail+1]
		for i := lo; i < hi; i++ {
			if g.heads[i] != ch.Head {
				continue
			}
			if ch.Scale {
				g.costs[i] *= ch.Cost
			} else {
				g.costs[i] = ch.Cost
			}
			found = true
		}
		if found {
			applied++
		}
	}
	if applied > 0 {
		g.costVersion.Add(1)
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

// ScaleArcCost multiplies the cost of every parallel directed edge (u, v) by
// factor and reports whether such an edge exists. This is the primitive
// behind traffic-congestion updates. It is a one-entry ApplyBatch, and
// refuses what that refuses: a factor that is not finite and positive, or
// a product that is not finite or that underflows a positive cost to 0.
// A refused factor changes no edge.
func (g *Graph) ScaleArcCost(u, v NodeID, factor float64) (bool, error) {
	n, err := g.ApplyBatch([]EdgeCostChange{{Tail: u, Head: v, Cost: factor, Scale: true}})
	return n > 0, err
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

// Clone returns a deep copy of the graph. Cost mutations on the copy do not
// affect the original; the route service uses this to apply traffic updates
// on a private snapshot.
func (g *Graph) Clone() *Graph {
	c := &Graph{
		offsets: append([]int32(nil), g.offsets...),
		heads:   append([]NodeID(nil), g.heads...),
		costs:   append([]float64(nil), g.costs...),
		points:  append([]Point(nil), g.points...),
		labels:  append([]string(nil), g.labels...),
	}
	if g.names != nil {
		c.names = make(map[string]NodeID, len(g.names))
		for k, v := range g.names {
			c.names[k] = v
		}
	}
	// The clone carries the source's cost version (though not its reverse
	// cache): version-stamped artifacts such as a ch.Index built from a
	// clone remain valid for the original at the same version, which is how
	// the route service rebuilds hierarchies off-lock from a snapshot.
	c.costVersion.Store(g.costVersion.Load())
	return c
}

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

// ReverseView returns the reverse graph, rebuilding it only when edge costs
// have changed since the last call — the cost-generation-aware cache that
// closes the last per-query O(m) allocation in bidirectional search.
//
// Concurrent readers may race to build the first snapshot after a mutation;
// both builds are correct and one simply wins the store. Callers must
// uphold the package-wide contract that costs are not mutated concurrently
// with reads (the route service serialises mutations behind its write
// lock), and must treat the returned graph as read-only.
func (g *Graph) ReverseView() *Graph {
	v := g.costVersion.Load()
	if snap := g.rev.Load(); snap != nil && snap.version == v {
		return snap.g
	}
	rg := g.Reverse()
	g.rev.Store(&reverseSnapshot{version: v, g: rg})
	return rg
}

// String summarises the graph for logs and debugging.
func (g *Graph) String() string {
	return fmt.Sprintf("graph(%d nodes, %d edges)", g.NumNodes(), g.NumEdges())
}
