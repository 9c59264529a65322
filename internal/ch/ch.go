// Package ch implements a customizable contraction hierarchy — the
// preprocessing-based point-to-point engine the road-network literature
// (Wu et al.'s experimental evaluation; Chen & Gotsman's scalable
// fastest-path heuristic) identifies as the technique that makes repeated
// queries orders of magnitude cheaper than Dijkstra or A* on exactly the
// ATIS workload: many queries between arbitrary pairs, frequent cost
// updates.
//
// The hierarchy is split into two layers with very different lifetimes,
// following the metric-independence idea of customizable route planning
// (CRP) and customizable contraction hierarchies:
//
//   - The Topology (topology.go) contracts nodes in importance order and
//     keeps a shortcut arc for every in/out pair. It stores the arcs as
//     one undirected upward skeleton, each arc once at its lower-ranked
//     endpoint, plus the lower-triangle lists describing how each arc
//     can be composed from cheaper ones; one stored triangle serves both
//     directions. It depends only on the graph's structure and is built
//     once.
//   - The Metric (customize.go) assigns each skeleton arc an up and a
//     down weight, each with an unpack middle, under one concrete cost
//     function, derived by a single bottom-up triangle-relaxation sweep.
//     A traffic update re-customizes a fresh Metric in milliseconds; the
//     Topology is untouched.
//
// Classic CH prunes shortcuts with witness searches; those proofs are
// only valid under the metric they were searched in, so a skeleton meant
// to survive cost updates cannot use them. The structural skeleton is
// larger, and the payoff is that no cost mutation — however large — ever
// forces a re-contraction.
//
// Queries (query.go) use the skeleton's elimination tree, built with the
// Topology: every upward arc leads to an ancestor, so the forward search
// from s (over up weights) and the backward search from d (over down
// weights) each stay on one ancestor chain.
// The query walks both chains bottom-up in rank order with plain label
// arrays and no priority queue or stall-on-demand; the best sum of the
// two labels over the common ancestors is the exact shortest-path cost,
// and unpacking the meeting path's arcs through their customized middles
// yields a path that validates edge-by-edge against the original graph.
//
// An Index pairs one Topology with one Metric. It is immutable and safe
// for concurrent queries; it answers for the costs the graph had when it
// was customized, so a caller that mutates the graph re-customizes.
package ch

import (
	"repro/internal/graph"
)

// Options tunes preprocessing. The zero value is ready to use.
type Options struct {
	// Workers bounds the goroutines of every parallel phase of the
	// structural build: the initial contraction priorities (independent
	// per-node pair counts) and the triangle packing (contiguous ranges of
	// target rows). The contraction loop between them runs on the calling
	// goroutine. 0 means GOMAXPROCS; 1 builds on the calling goroutine
	// alone. The topology built is the same for every value.
	Workers int
}

// Index is a queryable hierarchy: a metric-independent Topology plus one
// customized Metric. It is immutable and safe for concurrent queries;
// applying new costs means customizing a new Index from the same
// Topology, not mutating this one.
type Index struct {
	topo   *Topology
	metric *Metric
}

// NumNodes returns the number of nodes the index covers.
func (ix *Index) NumNodes() int { return ix.topo.n }

// Shortcuts returns the number of shortcut arcs the hierarchy added on top
// of the original edge set.
func (ix *Index) Shortcuts() int { return ix.topo.shortcuts }

// Rank returns node u's contraction rank (0 = contracted first, least
// important). It panics on out-of-range nodes, mirroring slice indexing.
func (ix *Index) Rank(u graph.NodeID) int { return int(ix.topo.rank[u]) }

// Topology returns the index's metric-independent layer, for callers that
// cache it across cost updates and re-customize instead of rebuilding.
func (ix *Index) Topology() *Topology { return ix.topo }

// Build preprocesses g into a queryable hierarchy: structural contraction
// (BuildTopology) followed by one customization pass for g's current
// costs. The graph is only read. Callers that keep the graph's structure
// and mutate only costs should retain ix.Topology() and re-customize with
// Topology.NewIndex instead of calling Build again — same result, a
// thousandth of the work.
func Build(g *graph.Graph, opts Options) (*Index, error) {
	topo, err := BuildTopology(g, opts)
	if err != nil {
		return nil, err
	}
	return topo.NewIndex(g)
}
