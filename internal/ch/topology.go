package ch

import (
	"fmt"
	"math/bits"
	"runtime"
	"slices"
	"sort"
	"sync"
	"unsafe"

	"repro/internal/graph"
	"repro/internal/pqueue"
)

// Topology is the metric-independent half of a contraction hierarchy: the
// contraction order, the shortcut skeleton (every arc any cost function
// could need), the lower-triangle lists that drive customization, and the
// mapping from original graph edges onto skeleton arcs. It is built once
// per graph structure and reused across arbitrarily many metrics — a cost
// mutation never invalidates it, only the Metric customized from it.
//
// Unlike the witness-pruned hierarchies of classic CH preprocessing, the
// skeleton keeps a shortcut arc for *every* in/out pair enumerated during
// contraction. A witness proof is only valid under the metric it was
// searched in; a skeleton meant to outlive the metric must keep every arc
// a future metric might make necessary (the customizable-CH observation
// of Dibbelt, Strasser & Wagner, the CH analogue of CRP's
// separator-based split). Contraction therefore needs no shortest-path
// searches at all — ordering and contraction are purely structural.
//
// A Topology is immutable after BuildTopology and safe for concurrent use;
// the HTTP suite's TestSnapshotDigestsUnchangedByReads digests it around
// concurrent reads and fails on any write.
type Topology struct {
	src *graph.Graph // the graph built from; Matches compares structures with it
	n   int          // nodes of the source graph
	m   int          // directed edges of the source graph

	rank  []int32        // contraction order; higher = more important
	order []graph.NodeID // order[r] = the node contracted r-th

	// The skeleton is one undirected upward CSR: row v,
	// heads[offsets[v]:offsets[v+1]], lists every neighbour ranked above
	// v that contraction joined to v in either direction — v's out-heads
	// in insertion order, then the in-heads it has no out-arc to. Every
	// skeleton arc lives once, at its lower-ranked endpoint, which is
	// what lets customization finalize all arcs of a node in one
	// contraction-order sweep. The Metric gives each position p two
	// weights: up (v→heads[p]) and down (heads[p]→v). A direction
	// contraction never inserted stays +Inf under every metric.
	offsets []int32
	heads   []graph.NodeID
	owner   []graph.NodeID // owner[p] = the node whose row holds position p

	// Lower-triangle lists, CSR-indexed by arc position. Triangle ti of
	// the arc {x, y} at position p of x's row (rank x < rank y) names a
	// middle v ranked below both by the positions of x and y in v's row,
	// tris[ti] = {lo: pos_v(x), hi: pos_v(y)}, and serves both
	// directions:
	//
	//	up(p)   ← min(up(p),   down(lo) + up(hi))   x→v→y
	//	down(p) ← min(down(p), down(hi) + up(lo))   y→v→x
	//
	// The middle itself is owner[lo], read only when a triangle wins.
	triOff []int32
	tris   []triangle

	// edgePos maps the i-th directed edge of the source graph (CSR
	// order, the order Neighbors visits) to its weight slot: p for the
	// up weight of position p, len(heads)+p for its down weight, -1 for
	// self loops. Customization seeds base costs through it in one O(m)
	// pass without any adjacency lookups.
	edgePos []int32

	shortcuts int // directed skeleton arcs not backed by any original edge

	// parent is the elimination tree of the skeleton in contraction
	// order (graph.Invalid at roots): the head of every skeleton arc is a
	// proper ancestor of its tail, so an upward search from s labels
	// nothing off s's ancestor chain.
	parent []graph.NodeID
}

// triangle is one lower triangle of a skeleton arc {x, y}: the positions
// of x and y in the middle node's row.
type triangle struct{ lo, hi int32 }

// NumNodes returns the number of nodes the topology covers.
func (t *Topology) NumNodes() int { return t.n }

// Shortcuts returns the number of shortcut arcs in the skeleton on top of
// the original edge set.
func (t *Topology) Shortcuts() int { return t.shortcuts }

// Triangles returns the number of triangle relaxations one customization
// pass performs: two per stored lower triangle, one per direction.
func (t *Topology) Triangles() int { return 2 * len(t.tris) }

// Arcs returns the number of weight slots a Metric carries: two per
// skeleton arc, one per direction.
func (t *Topology) Arcs() int { return 2 * len(t.heads) }

// RetainedBytes returns the bytes the topology's slices hold, summed from
// their lengths: the hierarchy's structural footprint, shared by every
// Metric customized from it.
func (t *Topology) RetainedBytes() int {
	return sliceBytes(t.rank) + sliceBytes(t.order) + sliceBytes(t.offsets) +
		sliceBytes(t.heads) + sliceBytes(t.owner) + sliceBytes(t.triOff) +
		sliceBytes(t.tris) + sliceBytes(t.edgePos) + sliceBytes(t.parent)
}

func sliceBytes[T any](s []T) int {
	var zero T
	return len(s) * int(unsafe.Sizeof(zero))
}

// Rank returns node u's contraction rank (0 = contracted first, least
// important). It panics on out-of-range nodes, mirroring slice indexing.
func (t *Topology) Rank(u graph.NodeID) int { return int(t.rank[u]) }

// Matches reports whether g shares the structure the topology was built
// from (graph.SameStructure): the graph itself or a Clone of it, whatever
// its costs. A graph built separately does not match, even one with the
// same node and edge counts, so its skeleton can never be misapplied.
func (t *Topology) Matches(g *graph.Graph) bool { return g.SameStructure(t.src) }

// findArc returns the position of the skeleton arc {x, y} in the row of
// its lower endpoint x. The arc exists for every consecutive pair of a
// packed query path; a miss means the caller broke that invariant.
func (t *Topology) findArc(x, y graph.NodeID) int32 {
	for p := t.offsets[x]; p < t.offsets[x+1]; p++ {
		if t.heads[p] == y {
			return p
		}
	}
	panic(fmt.Sprintf("ch: no skeleton arc between %d and %d", x, y))
}

// markSet is an epoch-stamped node set, the search.labelSet idiom: clear
// empties it in O(1) by advancing the epoch (uint64, so it never wraps),
// and add/has are one array access each. It answers "does arc u→w exist"
// after u's out-list has been added, without scanning that list per w.
type markSet struct {
	epoch uint64
	stamp []uint64
}

// newMarkSet returns an empty set over n nodes. The epoch starts at 1 so
// the zeroed stamps are not members.
func newMarkSet(n int) *markSet { return &markSet{epoch: 1, stamp: make([]uint64, n)} }

func (s *markSet) clear()                  { s.epoch++ }
func (s *markSet) add(u graph.NodeID)      { s.stamp[u] = s.epoch }
func (s *markSet) has(u graph.NodeID) bool { return s.stamp[u] == s.epoch }

// tbuilder is the mutable state of a structural contraction.
//
// fwd[u] and bwd[u] list u's live neighbours in arc-insertion order. They
// may still hold neighbours contracted since; those are skipped by every
// reader and dropped whenever a list is rewritten, which keeps the
// survivors' order. When v is contracted its own lists are compacted to
// its uncontracted neighbours and never touched again, so they are
// exactly v's upward skeleton rows.
//
// Once the live graph is dense (useBits), the loop also keeps it as bit
// rows: the live nodes are re-indexed 0..live-1 by idx, and out and in
// hold each one's live out- and in-neighbours as a row of words bits over
// that index. The lists stay the record of insertion order; the bits
// answer the existence and intersection questions.
type tbuilder struct {
	n          int
	fwd        [][]graph.NodeID // live out-neighbours, shortcut targets included
	bwd        [][]graph.NodeID // live in-neighbours
	contracted []bool
	delNbrs    []int32 // contracted-neighbour counts (the spreading term)
	rank       []int32
	order      []graph.NodeID
	marks      *markSet // arc-existence marks for seeding and the sequential phase
	liveArcs   int      // arcs between two uncontracted nodes

	idx     []int32  // node → bit index among the live nodes at the switch
	words   int      // words per bit row
	out, in []uint64 // bit rows, row i at [i*words, (i+1)*words); nil before the switch
}

// newTBuilder seeds the structural adjacency from g, dropping self loops
// and collapsing parallel edges to a single arc per directed pair.
func newTBuilder(g *graph.Graph) *tbuilder {
	n := g.NumNodes()
	b := &tbuilder{
		n:          n,
		fwd:        make([][]graph.NodeID, n),
		bwd:        make([][]graph.NodeID, n),
		contracted: make([]bool, n),
		delNbrs:    make([]int32, n),
		rank:       make([]int32, n),
		order:      make([]graph.NodeID, 0, n),
		marks:      newMarkSet(n),
	}
	for u := graph.NodeID(0); int(u) < n; u++ {
		b.marks.clear()
		g.Neighbors(u, func(a graph.Arc) {
			if a.Head == u || b.marks.has(a.Head) {
				return // self loops never lie on a shortest path
			}
			b.marks.add(a.Head)
			b.addArc(u, a.Head)
		})
	}
	return b
}

// addArc inserts the directed arc (u, w) into both adjacency views.
func (b *tbuilder) addArc(u, w graph.NodeID) {
	b.fwd[u] = append(b.fwd[u], w)
	b.bwd[w] = append(b.bwd[w], u)
	b.liveArcs++
}

// live drops contracted nodes from list in place, keeping the order of
// the rest.
func (b *tbuilder) live(list []graph.NodeID) []graph.NodeID {
	kept := list[:0]
	for _, x := range list {
		if !b.contracted[x] {
			kept = append(kept, x)
		}
	}
	return kept
}

// switchDense lets the density rule place the loop's switch to bit rows:
// once the live nodes' bit rows would take no more words than their
// lists' live entries.
const switchDense = -1

// useBits reports whether the loop should switch to bit rows now, with
// len(b.order) nodes contracted: by the density rule, or, for a
// switchAt ≥ 0, once switchAt nodes are contracted.
func (b *tbuilder) useBits(switchAt int) bool {
	if switchAt != switchDense {
		return len(b.order) >= switchAt
	}
	left := b.n - len(b.order)
	return left*((left+63)/64) <= b.liveArcs // 2 rows per node, 2 entries per arc
}

// toBits re-indexes the live nodes and fills their bit rows from the
// lists.
func (b *tbuilder) toBits() {
	left := b.n - len(b.order)
	b.words = (left + 63) / 64
	b.idx = make([]int32, b.n)
	i := int32(0)
	for v, done := range b.contracted {
		if !done {
			b.idx[v] = i
			i++
		}
	}
	b.out = make([]uint64, left*b.words)
	b.in = make([]uint64, left*b.words)
	for v, done := range b.contracted {
		if done {
			continue
		}
		for _, w := range b.fwd[v] {
			if !b.contracted[w] {
				setBit(b.row(b.out, graph.NodeID(v)), b.idx[w])
				setBit(b.row(b.in, w), b.idx[v])
			}
		}
	}
}

// row returns live node v's row of bits (b.out or b.in).
func (b *tbuilder) row(rows []uint64, v graph.NodeID) []uint64 {
	i := int(b.idx[v]) * b.words
	return rows[i : i+b.words : i+b.words]
}

func setBit(row []uint64, i int32)      { row[i>>6] |= 1 << (i & 63) }
func clearBit(row []uint64, i int32)    { row[i>>6] &^= 1 << (i & 63) }
func hasBit(row []uint64, i int32) bool { return row[i>>6]&(1<<(i&63)) != 0 }

// priority is the contraction importance of v: edge difference (shortcut
// arcs the contraction would insert minus arcs it retires) plus the
// deleted-neighbour count, which delays nodes in already-thinned regions
// and keeps the hierarchy balanced. Purely structural — no metric, no
// shortest-path simulation. marks is the caller's own scratch set.
//
// With v's live out-neighbours W marked, in-neighbour u would gain an
// arc to every w in W except itself and those it already reaches:
// |W| − [u ∈ W] − |out(u) ∩ W|, one pass over out(u).
func (b *tbuilder) priority(v graph.NodeID, marks *markSet) float64 {
	if b.out != nil {
		return b.priorityBits(v)
	}
	marks.clear()
	outDeg := 0
	for _, w := range b.fwd[v] {
		if !b.contracted[w] {
			marks.add(w)
			outDeg++
		}
	}
	added, inDeg := 0, 0
	for _, u := range b.bwd[v] {
		if b.contracted[u] {
			continue
		}
		inDeg++
		added += outDeg
		if marks.has(u) {
			added--
		}
		for _, x := range b.fwd[u] {
			if marks.has(x) {
				added--
			}
		}
	}
	return float64(added-(inDeg+outDeg)) + float64(b.delNbrs[v])
}

// priorityBits is priority over the bit rows: the same count, with each
// |out(u) ∩ W| a popcount over one row.
func (b *tbuilder) priorityBits(v graph.NodeID) float64 {
	ov, iv := b.row(b.out, v), b.row(b.in, v)
	outDeg, inDeg, both := 0, 0, 0
	for k := range ov {
		outDeg += bits.OnesCount64(ov[k])
		inDeg += bits.OnesCount64(iv[k])
		both += bits.OnesCount64(ov[k] & iv[k])
	}
	added := inDeg*outDeg - both
	for k, word := range iv {
		for ; word != 0; word &= word - 1 {
			u := (k<<6 + bits.TrailingZeros64(word)) * b.words
			for j, x := range b.out[u : u+b.words] {
				added -= bits.OnesCount64(x & ov[j])
			}
		}
	}
	return float64(added-(inDeg+outDeg)) + float64(b.delNbrs[v])
}

// contract removes v from the live graph: every in/out pair (u, w) gains
// the arc (u, w) if the skeleton lacks it — the pair is v's lower
// triangle, which freeze re-enumerates from v's rows — and v's survivors
// take a deleted-neighbour credit.
func (b *tbuilder) contract(v graph.NodeID) {
	b.fwd[v] = b.live(b.fwd[v])
	b.bwd[v] = b.live(b.bwd[v])
	if b.out != nil {
		b.contractBits(v)
	} else {
		for _, u := range b.bwd[v] {
			b.fwd[u] = b.live(b.fwd[u])
			b.marks.clear()
			for _, x := range b.fwd[u] {
				b.marks.add(x)
			}
			for _, w := range b.fwd[v] {
				if w != u && !b.marks.has(w) {
					b.addArc(u, w)
				}
			}
		}
	}
	b.contracted[v] = true
	b.liveArcs -= len(b.fwd[v]) + len(b.bwd[v])
	for _, w := range b.fwd[v] {
		b.delNbrs[w]++
	}
	for _, u := range b.bwd[v] {
		b.delNbrs[u]++
	}
}

// contractBits is contract's pair loop over the bit rows. An in-neighbour
// u that already reaches every out-neighbour but itself costs a few word
// operations; otherwise its missing arcs are appended in fwd[v] order, as
// the list loop appends them, after compacting fwd[u] as that loop does.
// u's own bit is set while it is visited, so no arc u→u is ever missing.
// A skipped fwd[u] is compacted later, at the latest when u is
// contracted; live keeps order, so the row comes out the same.
// Last, v's bit leaves its neighbours' rows.
func (b *tbuilder) contractBits(v graph.NodeID) {
	ov := b.row(b.out, v)
	for _, u := range b.bwd[v] {
		iu, ou := b.idx[u], b.row(b.out, u)
		setBit(ou, iu) // u needs no arc to itself
		if !covers(ou, ov) {
			b.fwd[u] = b.live(b.fwd[u])
			for _, w := range b.fwd[v] {
				if iw := b.idx[w]; !hasBit(ou, iw) {
					b.addArc(u, w)
					setBit(ou, iw)
					setBit(b.row(b.in, w), iu)
				}
			}
		}
		clearBit(ou, iu)
	}
	iv := b.idx[v]
	for _, w := range b.fwd[v] {
		clearBit(b.row(b.in, w), iv)
	}
	for _, u := range b.bwd[v] {
		clearBit(b.row(b.out, u), iv)
	}
}

// covers reports whether row a holds every bit of row b.
func covers(a, b []uint64) bool {
	for k := range b {
		if b[k]&^a[k] != 0 {
			return false
		}
	}
	return true
}

// BuildTopology contracts g structurally into a reusable topology. The
// graph is only read, and only its structure matters: two graphs with the
// same arcs but different costs produce the identical topology.
//
// The build has four phases. The initial priorities — one independent
// pair count per node, each worker with its own mark set — and the
// triangle packing in freeze run on opts.Workers goroutines. The
// contraction loop between them is sequential, because each contraction
// reshapes the graph the next evaluates against, with the classic
// lazy-update rule re-queueing a popped candidate whose priority has
// deteriorated past the next key. Once the live graph is dense the loop
// counts and inserts over bit rows instead of lists, which changes
// nothing it computes. The edge→slot map and the elimination tree close
// the build on the calling goroutine. The result depends neither on the
// worker count nor on when the loop switched to bit rows.
func BuildTopology(g *graph.Graph, opts Options) (*Topology, error) {
	return buildTopology(g, opts, switchDense)
}

// buildTopology is BuildTopology with the loop's switch to bit rows set
// by switchAt: switchDense, or the number of contracted nodes to switch
// at (0 = before the first pop, the node count = never).
func buildTopology(g *graph.Graph, opts Options, switchAt int) (*Topology, error) {
	n := g.NumNodes()
	if n == 0 {
		return nil, fmt.Errorf("ch: empty graph")
	}
	b := newTBuilder(g)

	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, n)
	prio := make([]float64, n)
	fanOut(workers, func(w int) {
		marks := newMarkSet(n)
		for v := w * n / workers; v < (w+1)*n/workers; v++ {
			prio[v] = b.priority(graph.NodeID(v), marks)
		}
	})

	queue := pqueue.NewIndexed(n)
	for v := 0; v < n; v++ {
		queue.Push(v, prio[v])
	}

	nextRank := int32(0)
	for queue.Len() > 0 {
		if b.out == nil && b.useBits(switchAt) {
			b.toBits()
		}
		vi, _, _ := queue.PopMin()
		v := graph.NodeID(vi)
		np := b.priority(v, b.marks)
		if _, nextP, ok := queue.Peek(); ok && np > nextP {
			queue.Push(vi, np)
			continue
		}
		b.rank[v] = nextRank
		b.order = append(b.order, v)
		nextRank++
		b.contract(v)
	}

	return b.freeze(g, workers), nil
}

// freeze packs the contracted rows into the Topology's undirected CSR
// skeleton, enumerates every lower triangle on up to workers goroutines,
// and maps the source graph's edges onto weight slots.
func (b *tbuilder) freeze(g *graph.Graph, workers int) *Topology {
	t := &Topology{
		src:   g,
		n:     b.n,
		m:     g.NumEdges(),
		rank:  b.rank,
		order: b.order,
	}
	// Size each row first, so the skeleton is allocated exactly once.
	t.offsets = make([]int32, b.n+1)
	directed := 0
	var row []graph.NodeID
	for v := graph.NodeID(0); int(v) < b.n; v++ {
		row = b.appendRow(row[:0], v)
		t.offsets[v+1] = t.offsets[v] + int32(len(row))
		directed += len(b.fwd[v]) + len(b.bwd[v])
	}
	numArcs := t.offsets[b.n]
	t.heads = make([]graph.NodeID, 0, numArcs)
	t.owner = make([]graph.NodeID, numArcs)
	for v := graph.NodeID(0); int(v) < b.n; v++ {
		t.heads = b.appendRow(t.heads, v)
		for p := t.offsets[v]; p < t.offsets[v+1]; p++ {
			t.owner[p] = v
		}
	}
	low := t.transpose()
	t.packTriangles(low, workers)

	// Edge → weight-slot mapping plus the base-backed census. Up slots
	// resolve in the edge's own row and down slots in the head's, so each
	// gets its own scatter.
	t.edgePos = make([]int32, g.NumEdges())
	baseBacked := make([]bool, 2*numArcs)
	upSc, downSc := newRowScatter(t), newRowScatter(t)
	base := 0
	ei := 0
	for u := graph.NodeID(0); int(u) < b.n; u++ {
		g.Neighbors(u, func(a graph.Arc) {
			id := int32(-1) // self loops never lie on a shortest path
			if w := a.Head; t.rank[u] < t.rank[w] {
				id, _ = upSc.pos(u, w)
			} else if w != u {
				p, _ := downSc.pos(w, u)
				id = numArcs + p
			}
			t.edgePos[ei] = id
			ei++
			if id >= 0 && !baseBacked[id] {
				baseBacked[id] = true
				base++
			}
		})
	}
	t.shortcuts = directed - base
	t.parent = t.eliminationTree(low)
	return t
}

// appendRow appends v's skeleton row to dst: its out-heads in insertion
// order, then the in-heads it has no out-arc to. On a graph whose arcs
// all run both ways the two lists are equal and the row is the out-list.
func (b *tbuilder) appendRow(dst []graph.NodeID, v graph.NodeID) []graph.NodeID {
	b.marks.clear()
	for _, w := range b.fwd[v] {
		b.marks.add(w)
	}
	dst = append(dst, b.fwd[v]...)
	for _, u := range b.bwd[v] {
		if !b.marks.has(u) {
			dst = append(dst, u)
		}
	}
	return dst
}

// lowerArcs is the skeleton transposed: for each node x, the positions
// pos[off[x]:off[x+1]] of x in the rows of its lower neighbours, ordered
// by those neighbours' contraction order.
type lowerArcs struct{ off, pos []int32 }

// transpose lists every node's lower neighbours. Every arc sits at its
// lower endpoint, so transposing the skeleton's rows, visited in
// contraction order, gives them ranked lowest first.
func (t *Topology) transpose() lowerArcs {
	low := lowerArcs{off: make([]int32, t.n+1), pos: make([]int32, len(t.heads))}
	for _, w := range t.heads {
		low.off[w+1]++
	}
	for v := 0; v < t.n; v++ {
		low.off[v+1] += low.off[v]
	}
	cursor := append([]int32(nil), low.off[:t.n]...)
	for _, v := range t.order {
		for p := t.offsets[v]; p < t.offsets[v+1]; p++ {
			w := t.heads[p]
			low.pos[cursor[w]] = p
			cursor[w]++
		}
	}
	return low
}

// eliminationTree computes the skeleton's elimination tree with Liu's
// algorithm: visit nodes v in contraction order and, for each lower
// neighbour u, climb from u to the root of its current subtree, pointing
// every node passed at v (path compression), and hang that root below v.
// A parent is thus the lowest-ranked node adjacent to the child's whole
// subtree, not just to the child: the skeleton keeps only in/out pairs,
// so a node's upper neighbours need not be adjacent to each other.
func (t *Topology) eliminationTree(low lowerArcs) []graph.NodeID {
	parent := make([]graph.NodeID, t.n)
	anc := make([]graph.NodeID, t.n)
	for v := range parent {
		parent[v], anc[v] = graph.Invalid, graph.Invalid
	}
	for _, v := range t.order {
		for _, p := range low.pos[low.off[v]:low.off[v+1]] {
			for r := t.owner[p]; r != v; {
				next := anc[r]
				anc[r] = v
				if next == graph.Invalid {
					parent[r] = v
					break
				}
				r = next
			}
		}
	}
	return parent
}

// packTriangles fills triOff and tris one target row at a time, on up to
// workers goroutines.
//
// The triangles of an arc {x, y} in x's row are the lower neighbours v of
// x whose row also holds y. So for row x, scattered once, the pass walks
// x's lower neighbours in contraction order and, in each one's row, only
// the heads ranked above x: byRank lists every row by its heads' rank,
// and at[p] is position p's index there. A head y in x's row gives the
// triangle {pos_v(x), pos_v(y)} of the arc at y's position in x's row;
// on a directed graph, where two out-heads of v need not be joined, a
// head outside x's row gives none. A stable counting sort by arc then
// lays the row's triangles out in CSR order, each arc's list ordered by
// its middles' contraction order, as customization reads them.
//
// The heads a row's walk visits bound its triangles, and the bound is
// exact when every arc runs both ways, since contraction then joins every
// pair of a middle's row. Each row writes from its bound's prefix sum, so
// workers take contiguous node ranges of about equal bound and write
// disjoint slots; one closing pass compacts the gaps a directed graph
// leaves. The layout depends on neither the worker count nor the split.
func (t *Topology) packTriangles(low lowerArcs, workers int) {
	numArcs := int32(len(t.heads))
	byRank := make([]int32, numArcs)
	at := make([]int32, numArcs)
	cursor := append([]int32(nil), t.offsets[:t.n]...)
	for _, y := range t.order {
		for _, p := range low.pos[low.off[y]:low.off[y+1]] {
			v := t.owner[p]
			byRank[cursor[v]], at[p] = p, cursor[v]
			cursor[v]++
		}
	}

	// rowBase[x] is the first slot of row x, from the bounds before it.
	rowBase := make([]int32, t.n+1)
	for x := range t.n {
		bound := int32(0)
		if t.offsets[x] < t.offsets[x+1] {
			for _, p := range low.pos[low.off[x]:low.off[x+1]] {
				bound += t.offsets[t.owner[p]+1] - at[p] - 1
			}
		}
		rowBase[x+1] = rowBase[x] + bound
	}
	t.triOff = make([]int32, numArcs+1)
	t.tris = make([]triangle, rowBase[t.n])
	rowLen := make([]int32, t.n)

	// Worker w packs the rows [cut(w), cut(w+1)).
	cut := func(w int) int {
		if w == workers {
			return t.n
		}
		return sort.Search(t.n, func(x int) bool { return int(rowBase[x])*workers >= int(rowBase[t.n])*w })
	}
	fanOut(workers, func(w int) {
		sc := newRowScatter(t)
		var found []rowTriangle
		var slot []int32
		for x := graph.NodeID(cut(w)); int(x) < cut(w+1); x++ {
			xlo, xhi := t.offsets[x], t.offsets[x+1]
			if xlo == xhi {
				continue
			}
			sc.scatter(x)
			found = found[:0]
			slot = slices.Grow(slot[:0], int(xhi-xlo))[:xhi-xlo]
			clear(slot)
			for _, i := range low.pos[low.off[x]:low.off[x+1]] {
				for _, j := range byRank[at[i]+1 : t.offsets[t.owner[i]+1]] {
					if p := sc.at[t.heads[j]]; p >= xlo && p < xhi {
						found = append(found, rowTriangle{p - xlo, triangle{lo: i, hi: j}})
						slot[p-xlo]++
					}
				}
			}
			next := rowBase[x]
			for a, c := range slot {
				t.triOff[xlo+int32(a)], slot[a] = next, next
				next += c
			}
			for _, f := range found {
				t.tris[slot[f.arc]] = f.tri
				slot[f.arc]++
			}
			rowLen[x] = next - rowBase[x]
		}
	})

	total := int32(0)
	for _, c := range rowLen {
		total += c
	}
	if total < rowBase[t.n] {
		tris := make([]triangle, total)
		next := int32(0)
		for x := range t.n {
			copy(tris[next:], t.tris[rowBase[x]:rowBase[x]+rowLen[x]])
			for p := t.offsets[x]; p < t.offsets[x+1]; p++ {
				t.triOff[p] -= rowBase[x] - next
			}
			next += rowLen[x]
		}
		t.tris = tris
	}
	t.triOff[numArcs] = total
}

// fanOut runs fn(0), …, fn(n-1) on n goroutines and waits for all of
// them; with n == 1 it calls fn(0) on the calling goroutine.
func fanOut(n int, fn func(w int)) {
	if n == 1 {
		fn(0)
		return
	}
	var wg sync.WaitGroup
	for w := range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(w)
		}()
	}
	wg.Wait()
}

// rowTriangle is a triangle found for the arc at index arc of the row
// being packed.
type rowTriangle struct {
	arc int32
	tri triangle
}

// rowScatter resolves arc positions one skeleton row at a time:
// scattering row r writes at[h] = the position of h in r's row for each
// head h, after which any lookup in that row is one array read and a
// range test. Entries of earlier rows linger in at, but every entry is
// -1 or a position holding its own node, so an entry inside r's range
// was written by r's scatter: h is in the row exactly when at[h] falls in
// its range, and no mark set is needed.
type rowScatter struct {
	t   *Topology
	at  []int32
	row graph.NodeID // the scattered row; graph.Invalid before the first
}

func newRowScatter(t *Topology) *rowScatter {
	at := make([]int32, t.n)
	for i := range at {
		at[i] = -1
	}
	return &rowScatter{t: t, at: at, row: graph.Invalid}
}

// scatter makes r the scattered row.
func (s *rowScatter) scatter(r graph.NodeID) {
	if s.row != r {
		for p := s.t.offsets[r]; p < s.t.offsets[r+1]; p++ {
			s.at[s.t.heads[p]] = p
		}
		s.row = r
	}
}

// pos returns the position of the arc from row r to h, and whether row r
// holds one.
func (s *rowScatter) pos(r, h graph.NodeID) (int32, bool) {
	s.scatter(r)
	p := s.at[h]
	return p, p >= s.t.offsets[r] && p < s.t.offsets[r+1]
}
