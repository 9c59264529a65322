package graph

import (
	"fmt"
	"strings"
)

// Path is a sequence of nodes (v0, v1, …, vk) as defined in Section 2 of the
// paper: consecutive nodes must be joined by edges of the graph. A Path with
// fewer than one node is empty; a single-node path has zero edges and zero
// cost.
type Path struct {
	Nodes []NodeID
}

// Len returns the number of edges in the path (the paper's path length L).
func (p Path) Len() int {
	if len(p.Nodes) == 0 {
		return 0
	}
	return len(p.Nodes) - 1
}

// Source returns the first node, or Invalid for an empty path.
func (p Path) Source() NodeID {
	if len(p.Nodes) == 0 {
		return Invalid
	}
	return p.Nodes[0]
}

// Destination returns the last node, or Invalid for an empty path.
func (p Path) Destination() NodeID {
	if len(p.Nodes) == 0 {
		return Invalid
	}
	return p.Nodes[len(p.Nodes)-1]
}

// CostIn returns the total cost of the path in g: the sum of the costs of
// its edges (Section 2). It fails if any consecutive pair is not an edge.
func (p Path) CostIn(g *Graph) (float64, error) {
	var sum float64
	for i := 0; i+1 < len(p.Nodes); i++ {
		c, ok := g.ArcCost(p.Nodes[i], p.Nodes[i+1])
		if !ok {
			return 0, fmt.Errorf("graph: path step %d: no edge (%d,%d)", i, p.Nodes[i], p.Nodes[i+1])
		}
		sum += c
	}
	return sum, nil
}

// ValidIn reports whether p is a path of g: every consecutive node pair is
// an edge. Empty and single-node paths are valid.
func (p Path) ValidIn(g *Graph) bool {
	for i := 0; i+1 < len(p.Nodes); i++ {
		if _, ok := g.ArcCost(p.Nodes[i], p.Nodes[i+1]); !ok {
			return false
		}
	}
	return true
}

// String renders the path as "3 -> 7 -> 12". Landmark names are not
// resolved here; use the route package's display facilities for that.
func (p Path) String() string {
	if len(p.Nodes) == 0 {
		return "(empty path)"
	}
	var sb strings.Builder
	for i, u := range p.Nodes {
		if i > 0 {
			sb.WriteString(" -> ")
		}
		fmt.Fprintf(&sb, "%d", u)
	}
	return sb.String()
}

// BuildPath reconstructs the path from source to dest by following the
// predecessor array prev (prev[u] is the node before u on the best known
// path, Invalid at the source and at unreached nodes). It returns an empty
// path when dest is unreached. This is the pointer-chasing construction the
// paper describes for the node relation's path attribute (Section 4).
func BuildPath(prev []NodeID, source, dest NodeID) Path {
	if dest < 0 || int(dest) >= len(prev) {
		return Path{}
	}
	// Count the walk first so the path is one exact-size allocation,
	// bounding it by len(prev) to stay safe against a corrupted
	// predecessor array with cycles.
	n := 1
	for at := dest; at != source; n++ {
		if n > len(prev) {
			return Path{} // cycle: not a valid tree
		}
		if at = prev[at]; at == Invalid {
			return Path{} // unreached, or a chain that misses the source
		}
	}
	nodes := make([]NodeID, n)
	for i, at := n-1, dest; i >= 0; i-- {
		nodes[i], at = at, prev[at]
	}
	return Path{Nodes: nodes}
}
