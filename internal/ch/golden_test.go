package ch

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/graph"
	"repro/internal/gridgen"
	"repro/internal/mpls"
)

// digest hashes vals in order, each as little-endian fixed-width
// integers.
func digest(vals ...any) string {
	h := sha256.New()
	for _, v := range vals {
		if err := binary.Write(h, binary.LittleEndian, v); err != nil {
			panic(err)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// topologyDigest hashes every structural field of t in a fixed order:
// rank, order, the undirected skeleton and its row owners, the triangle
// lists, edgePos and the shortcut count. Two topologies with equal
// digests are interchangeable byte for byte.
func topologyDigest(t *Topology) string {
	return digest(int64(t.n), int64(t.m), t.rank, t.order, t.offsets, t.heads, t.owner,
		t.triOff, t.tris, t.edgePos, int64(t.shortcuts))
}

// directedDigest hashes the two-half directed view the skeleton replaced,
// rebuilt from t: the fwd and bwd halves (each equal to the undirected
// rows), per-direction triangle lists (fwd arcs at ids [0,A), bwd arcs at
// [A,2A), each entry a middle, the bwd-half position of the arc into the
// middle and the fwd-half position of the arc out of it), edgePos and the
// shortcut count. On a graph whose arcs all run both ways that view is
// exactly what the directed builder froze, so its digests still pin the
// undirected layout byte for byte.
func directedDigest(t *Topology) string {
	A := int32(len(t.heads))
	T := int32(len(t.tris))
	triOff := make([]int32, 0, 2*A+1)
	triOff = append(triOff, t.triOff...)
	for _, o := range t.triOff[1:] {
		triOff = append(triOff, T+o)
	}
	mid := make([]graph.NodeID, 0, 2*T)
	down := make([]int32, 0, 2*T)
	up := make([]int32, 0, 2*T)
	for _, tr := range t.tris { // fwd arc x→y: x→v, then v→y
		mid, down, up = append(mid, t.owner[tr.lo]), append(down, tr.lo), append(up, tr.hi)
	}
	for _, tr := range t.tris { // bwd arc y→x: y→v, then v→x
		mid, down, up = append(mid, t.owner[tr.lo]), append(down, tr.hi), append(up, tr.lo)
	}
	return digest(int64(t.n), int64(t.m), t.rank, t.order,
		t.offsets, t.heads, t.offsets, t.heads, // fwd, then bwd
		triOff, mid, down, up, t.edgePos, int64(t.shortcuts))
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
// digests and, on the k=48 grid, an allocation budget for one build and a
// ceiling on the bytes the frozen topology retains.
//
// The two grids have arcs running both ways, so their digests are of the
// directed view (directedDigest) and have not changed since the directed
// two-half builder: the undirected skeleton reproduces it exactly. The
// directed graphs' digests are of the undirected fields (topologyDigest),
// whose rows gained the union's missing directions.
var goldenCases = []struct {
	name     string
	g        func() *graph.Graph
	directed bool // want is a directedDigest; else a topologyDigest
	want     string
	maxBytes uint64 // allocation budget of one build; 0 = unchecked
	maxHeld  int    // ceiling on RetainedBytes; 0 = unchecked
}{
	{"grid-k48-variance-seed1", func() *graph.Graph {
		return gridgen.MustGenerate(gridgen.Config{K: 48, Model: gridgen.Variance, Seed: 1})
	}, true, "1e796a47b20048d1d99c278d83ebe6ea54071badce0f9a37722f7d0865283d17", 88_001_096, 5_000_000},
	{"grid-k20-uniform", func() *graph.Graph {
		return gridgen.MustGenerate(gridgen.Config{K: 20, Model: gridgen.Uniform})
	}, true, "2f18d9feebf0e9076964fea3d50cc81fa493d7a8eac1a54a8c1b8927220811aa", 0, 0},
	{"mpls-default", func() *graph.Graph {
		return mpls.MustGenerate(mpls.Config{})
	}, false, "12078230fadc65ab709fbc33429449e5a2dbb6e05ca6cd96e612602916a6931c", 0, 0},
	{"directed-small", goldenDirected, false, "ed98e21b060b542429dc428b1ad42c543bc6ada68005396e232ced7f639ea9df", 0, 0},
}

// TestTopologyGoldenDigest pins BuildTopology's output byte for byte; any
// change to contraction order, skeleton layout, triangle enumeration or
// the edge→slot map shows up here. On the k=48 grid it also bounds the
// bytes one build allocates by what the adjacency-scan builder allocated,
// so a faster build cannot buy its speed with memory, and the bytes the
// frozen topology keeps, so a layout change cannot regrow the index
// silently.
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
			digest := topologyDigest
			if tc.directed {
				digest = directedDigest
			}
			if got := digest(topo); got != tc.want {
				t.Errorf("topology digest %s, want %s (arcs %d, triangles %d, shortcuts %d)",
					got, tc.want, topo.Arcs(), topo.Triangles(), topo.Shortcuts())
			}
			if got := after.TotalAlloc - before.TotalAlloc; tc.maxBytes > 0 && got > tc.maxBytes {
				t.Errorf("BuildTopology allocated %d bytes, budget %d", got, tc.maxBytes)
			}
			if got := topo.RetainedBytes(); tc.maxHeld > 0 && got > tc.maxHeld {
				t.Errorf("topology retains %d bytes, ceiling %d", got, tc.maxHeld)
			}
		})
	}
}

// TestEliminationTreeCoversUpwardArcs checks the invariant the query's
// chain walk rests on: on every golden graph, the head of each skeleton
// arc is a proper ancestor of its tail in the elimination
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
			for p, w := range topo.heads {
				if u := topo.owner[p]; !isAncestor(w, u) {
					if bad++; bad <= 5 {
						t.Errorf("arc %d–%d: head is not an ancestor of the tail", u, w)
					}
				}
			}
			if bad > 0 {
				t.Errorf("%d of %d arcs uncovered", bad, len(topo.heads))
			}
		})
	}
}

// TestTopologyIndependentOfWorkers checks that the worker count changes
// how a topology is built, never what is built: every Options.Workers
// value gives the identical digest on every golden graph, and on a k=100
// grid, whose rows are long enough that every packing worker gets
// middles of its own.
func TestTopologyIndependentOfWorkers(t *testing.T) {
	agree := func(t *testing.T, g *graph.Graph) {
		want := ""
		for _, workers := range []int{1, 2, 3, 8} {
			topo, err := BuildTopology(g, Options{Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			if got := topologyDigest(topo); want == "" {
				want = got
			} else if got != want {
				t.Errorf("Workers=%d: digest %s, want the Workers=1 digest %s", workers, got, want)
			}
		}
	}
	for _, tc := range goldenCases {
		t.Run(tc.name, func(t *testing.T) { agree(t, tc.g()) })
	}
	t.Run("grid-k100-variance-seed1", func(t *testing.T) {
		if testing.Short() || raceEnabled {
			t.Skip("four k=100 builds are too slow under -short and -race")
		}
		agree(t, gridgen.MustGenerate(gridgen.Config{K: 100, Model: gridgen.Variance, Seed: 1}))
	})
}

// TestTopologyIndependentOfSwitchPoint checks that the contraction loop's
// bit rows change how a topology is built, never what is built: switching
// to them never, before the first pop, half-way through the contraction
// or where the density rule puts it gives the Workers=1 digest, on every
// golden graph and on a k=100 grid, whose dense tail is long.
func TestTopologyIndependentOfSwitchPoint(t *testing.T) {
	agree := func(t *testing.T, g *graph.Graph) {
		n := g.NumNodes()
		want := ""
		for _, sw := range []struct {
			name string
			at   int
		}{{"never", n}, {"first pop", 0}, {"mid-way", n / 2}, {"dense", switchDense}} {
			topo, err := buildTopology(g, Options{Workers: 1}, sw.at)
			if err != nil {
				t.Fatal(err)
			}
			if got := topologyDigest(topo); want == "" {
				want = got
			} else if got != want {
				t.Errorf("switch %s: digest %s, want the never-switched digest %s", sw.name, got, want)
			}
		}
	}
	for _, tc := range goldenCases {
		t.Run(tc.name, func(t *testing.T) { agree(t, tc.g()) })
	}
	t.Run("grid-k100-variance-seed1", func(t *testing.T) {
		if testing.Short() || raceEnabled {
			t.Skip("four k=100 builds are too slow under -short and -race")
		}
		agree(t, gridgen.MustGenerate(gridgen.Config{K: 100, Model: gridgen.Variance, Seed: 1}))
	})
}

// metricDigest hashes every field of m in a fixed order: the up and down
// costs (as their IEEE-754 bits) and the up and down middles. Two
// metrics with equal digests serve the same weights and unpack the same
// paths.
func metricDigest(m *Metric) string {
	return digest(m.up.costs, m.down.costs, m.up.mid, m.down.mid)
}

// metricCases are the graphs TestMetricGoldenDigest pins: the topology
// golden graphs at their generated costs, and the k=48 grid after three
// seeded 16-edge traffic batches, so the digests cover weights that no
// longer follow the generator's cost model.
var metricCases = []struct {
	name string
	g    func() *graph.Graph
	want string
}{
	{"grid-k48-variance-seed1", goldenCases[0].g, "8740bf04186644510abaebc67812a217b9624edd4b5b6381013f7eb6ab01d166"},
	{"grid-k20-uniform", goldenCases[1].g, "1896c4b9a56633368ca1dc0d7985bf07fe1f0da57b565a28c6d62d2bc148490e"},
	{"mpls-default", goldenCases[2].g, "68a4cd25c75f4697699d7785eae03b71a062a79b774c2112fc6fa191680b09c1"},
	{"directed-small", goldenCases[3].g, "3ae07e94fcdb02570011cd519d7f3141a57456637b0215096168f0308e7b93dc"},
	{"grid-k48-variance-seed1-3x16", func() *graph.Graph {
		g := goldenCases[0].g()
		base := g.Edges()
		rng := rand.New(rand.NewSource(7))
		for batch := 0; batch < 3; batch++ {
			changes := make([]graph.EdgeCostChange, 16)
			for j := range changes {
				e := base[rng.Intn(len(base))]
				changes[j] = graph.EdgeCostChange{Tail: e.Tail, Head: e.Head, Cost: e.Cost * (0.5 + 3*rng.Float64())}
			}
			if _, err := g.ApplyBatch(changes); err != nil {
				panic(err)
			}
		}
		return g
	}, "ab78877bd48b3b814d30995d907a8fb5436c0e826e35a59564ec5a4543a63634"},
}

// TestMetricGoldenDigest pins Customize's output byte for byte: every
// weight and every middle, on each golden graph. A faster sweep must
// leave every digest unchanged, and so must a partial customization
// that claims to equal a full one.
func TestMetricGoldenDigest(t *testing.T) {
	for _, tc := range metricCases {
		t.Run(tc.name, func(t *testing.T) {
			g := tc.g()
			topo, err := BuildTopology(g, Options{})
			if err != nil {
				t.Fatal(err)
			}
			m, err := topo.Customize(g)
			if err != nil {
				t.Fatal(err)
			}
			if got := metricDigest(m); got != tc.want {
				t.Errorf("metric digest %s, want %s", got, tc.want)
			}
		})
	}
}
