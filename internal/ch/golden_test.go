package ch

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"runtime"
	"testing"

	"repro/internal/graph"
	"repro/internal/gridgen"
	"repro/internal/mpls"
)

// topologyDigest hashes every structural field of t in a fixed order:
// rank, order, both CSR halves, the triangle lists, edgePos and the
// shortcut count, each as little-endian fixed-width integers. Two
// topologies with equal digests are interchangeable byte for byte.
func topologyDigest(t *Topology) string {
	h := sha256.New()
	write := func(v any) {
		if err := binary.Write(h, binary.LittleEndian, v); err != nil {
			panic(err)
		}
	}
	write(int64(t.n))
	write(int64(t.m))
	write(t.rank)
	write(t.order)
	write(t.fwd.offsets)
	write(t.fwd.heads)
	write(t.bwd.offsets)
	write(t.bwd.heads)
	write(t.triOff)
	write(t.triMid)
	write(t.triDown)
	write(t.triUp)
	write(t.edgePos)
	write(int64(t.shortcuts))
	return hex.EncodeToString(h.Sum(nil))
}

// goldenDirected is a small directed graph exercising every structural
// corner the builder handles: one-way arcs, parallel edges (with
// different costs), a self loop, two-way streets and an isolated node.
func goldenDirected() *graph.Graph {
	b := graph.NewBuilder(9, 24)
	for i := 0; i < 9; i++ {
		b.AddNode(float64(i%3), float64(i/3))
	}
	b.AddUndirectedEdge(0, 1, 2)
	b.AddEdge(0, 1, 1) // parallel to 0→1
	b.AddEdge(1, 2, 3) // one-way
	b.AddEdge(2, 2, 1) // self loop
	b.AddUndirectedEdge(2, 5, 1)
	b.AddEdge(5, 4, 2) // one-way
	b.AddUndirectedEdge(4, 1, 1)
	b.AddEdge(3, 0, 4) // one-way
	b.AddUndirectedEdge(4, 3, 2)
	b.AddEdge(6, 3, 1)
	b.AddEdge(6, 3, 5) // parallel to 6→3
	b.AddUndirectedEdge(6, 7, 1)
	b.AddEdge(7, 4, 2) // one-way
	b.AddEdge(5, 1, 6) // one-way
	// Node 8 is isolated.
	return b.MustBuild()
}

// goldenCases are the graphs TestTopologyGoldenDigest pins, with their
// digests and, on the k=48 grid, an allocation budget for one build.
var goldenCases = []struct {
	name     string
	g        func() *graph.Graph
	want     string
	maxBytes uint64 // allocation budget of one build; 0 = unchecked
}{
	{"grid-k48-variance-seed1", func() *graph.Graph {
		return gridgen.MustGenerate(gridgen.Config{K: 48, Model: gridgen.Variance, Seed: 1})
	}, "1e796a47b20048d1d99c278d83ebe6ea54071badce0f9a37722f7d0865283d17", 88_001_096},
	{"grid-k20-uniform", func() *graph.Graph {
		return gridgen.MustGenerate(gridgen.Config{K: 20, Model: gridgen.Uniform})
	}, "2f18d9feebf0e9076964fea3d50cc81fa493d7a8eac1a54a8c1b8927220811aa", 0},
	{"mpls-default", func() *graph.Graph {
		return mpls.MustGenerate(mpls.Config{})
	}, "8b4086580630e45efcaa70c6ca3b91933b5612551c6cd55ad7f2b19bca2070d6", 0},
	{"directed-small", goldenDirected, "9b97a0b097e97ebf8a109b7caf89fa2d53a240d4e143267590560570fb9045a5", 0},
}

// TestTopologyGoldenDigest pins BuildTopology's output byte for byte. The
// digests were captured from the adjacency-scan builder the current one
// replaced; any change to contraction order, skeleton layout, triangle
// enumeration or the edge→arc map shows up here. On the k=48 grid it also
// bounds the bytes one build allocates by what that builder allocated, so
// a faster build cannot buy its speed with memory.
func TestTopologyGoldenDigest(t *testing.T) {
	for _, tc := range goldenCases {
		t.Run(tc.name, func(t *testing.T) {
			g := tc.g()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			topo, err := BuildTopology(g, Options{})
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			if got := topologyDigest(topo); got != tc.want {
				t.Errorf("topology digest %s, want %s (arcs %d, triangles %d, shortcuts %d)",
					got, tc.want, topo.Arcs(), topo.Triangles(), topo.Shortcuts())
			}
			if got := after.TotalAlloc - before.TotalAlloc; tc.maxBytes > 0 && got > tc.maxBytes {
				t.Errorf("BuildTopology allocated %d bytes, budget %d", got, tc.maxBytes)
			}
		})
	}
}

// TestEliminationTreeCoversUpwardArcs checks the invariant the query's
// chain walk rests on: on every golden graph, the head of each skeleton
// arc in either half is a proper ancestor of its tail in the elimination
// tree. A parent taken as each node's lowest-ranked upper neighbour
// breaks it on mpls-default, whose one-way freeway arcs leave upper
// neighbours of a node that the in/out-pair skeleton never connects.
func TestEliminationTreeCoversUpwardArcs(t *testing.T) {
	for _, tc := range goldenCases {
		t.Run(tc.name, func(t *testing.T) {
			topo, err := BuildTopology(tc.g(), Options{})
			if err != nil {
				t.Fatal(err)
			}
			for v, p := range topo.parent {
				if p != graph.Invalid && topo.rank[p] <= topo.rank[v] {
					t.Fatalf("parent %d of %d ranks %d, not above %d", p, v, topo.rank[p], topo.rank[v])
				}
			}
			isAncestor := func(w, u graph.NodeID) bool {
				for x := topo.parent[u]; x != graph.Invalid; x = topo.parent[x] {
					if x == w {
						return true
					}
				}
				return false
			}
			bad := 0
			for half, sk := range []*skeleton{&topo.fwd, &topo.bwd} {
				for u := graph.NodeID(0); int(u) < topo.n; u++ {
					for _, w := range sk.heads[sk.offsets[u]:sk.offsets[u+1]] {
						if !isAncestor(w, u) {
							if bad++; bad <= 5 {
								t.Errorf("half %d arc %d→%d: head is not an ancestor of the tail", half, u, w)
							}
						}
					}
				}
			}
			if bad > 0 {
				t.Errorf("%d of %d arcs uncovered", bad, topo.Arcs())
			}
		})
	}
}
