package ch

import (
	"fmt"
	"runtime"
	"slices"
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
// A Topology is immutable after BuildTopology and safe for concurrent use
// (atislint's immutsnapshot analyzer enforces the freeze).
//
//atis:immutable
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
type tbuilder struct {
	n          int
	fwd        [][]graph.NodeID // live out-neighbours, shortcut targets included
	bwd        [][]graph.NodeID // live in-neighbours
	contracted []bool
	delNbrs    []int32 // contracted-neighbour counts (the spreading term)
	rank       []int32
	order      []graph.NodeID
	marks      *markSet // arc-existence marks for seeding and the sequential phase
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

// contract removes v from the live graph: every in/out pair (u, w) gains
// the arc (u, w) if the skeleton lacks it — the pair is v's lower
// triangle, which freeze re-enumerates from v's rows — and v's survivors
// take a deleted-neighbour credit.
func (b *tbuilder) contract(v graph.NodeID) {
	b.fwd[v] = b.live(b.fwd[v])
	b.bwd[v] = b.live(b.bwd[v])
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
	b.contracted[v] = true
	for _, w := range b.fwd[v] {
		b.delNbrs[w]++
	}
	for _, u := range b.bwd[v] {
		b.delNbrs[u]++
	}
}

// BuildTopology contracts g structurally into a reusable topology. The
// graph is only read, and only its structure matters: two graphs with the
// same arcs but different costs produce the identical topology.
//
// Two phases run on opts.Workers goroutines: the initial priorities — one
// independent pair count per node, each worker with its own mark set —
// and the triangle packing in freeze. The contraction loop between them
// is sequential because each contraction reshapes the graph the next
// evaluates against, with the classic lazy-update rule re-queueing a
// popped candidate whose priority has deteriorated past the next key.
// The result does not depend on the worker count.
func BuildTopology(g *graph.Graph, opts Options) (*Topology, error) {
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
// skeleton, enumerates every lower triangle from the middle nodes' rows
// on up to workers goroutines, and maps the source graph's edges onto
// weight slots.
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
	t.packTriangles(workers)

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
	t.parent = t.eliminationTree()
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

// eliminationTree computes the skeleton's elimination tree with Liu's
// algorithm: visit nodes v in contraction order and, for each lower
// neighbour u, climb from u to the root of its current subtree, pointing
// every node passed at v (path compression), and hang that root below v.
// A parent is thus the lowest-ranked node adjacent to the child's whole
// subtree, not just to the child: the skeleton keeps only in/out pairs,
// so a node's upper neighbours need not be adjacent to each other.
func (t *Topology) eliminationTree() []graph.NodeID {
	// Every arc sits at its lower endpoint, so transposing the skeleton
	// lists each node's lower neighbours.
	lowOff := make([]int32, t.n+1)
	for _, w := range t.heads {
		lowOff[w+1]++
	}
	for v := 0; v < t.n; v++ {
		lowOff[v+1] += lowOff[v]
	}
	low := make([]graph.NodeID, lowOff[t.n])
	cursor := append([]int32(nil), lowOff[:t.n]...)
	for p, w := range t.heads {
		low[cursor[w]] = t.owner[p]
		cursor[w]++
	}

	parent := make([]graph.NodeID, t.n)
	anc := make([]graph.NodeID, t.n)
	for v := range parent {
		parent[v], anc[v] = graph.Invalid, graph.Invalid
	}
	for _, v := range t.order {
		for _, u := range low[lowOff[v]:lowOff[v+1]] {
			for r := u; r != v; {
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

// packTriangles fills triOff and tris: a counting sort of every lower
// triangle by target arc into CSR form, on up to workers goroutines.
//
// The middles are cut into contiguous runs of the contraction order, one
// per worker. Each worker counts its run's triangles per arc with its own
// scatter; a prefix pass over (arc, worker) turns the counts into each
// worker's first slot per arc, and a second pass over the same runs fills
// those disjoint slots. A run gives a target at most one triangle per
// middle, in contraction order, and the runs are laid out in that order
// too, so each arc's list comes out ordered by its middles' contraction
// order whatever the worker count.
func (t *Topology) packTriangles(workers int) {
	runs := t.splitMiddles(workers)
	numArcs := len(t.heads)
	scatters := make([]*rowScatter, len(runs)-1)
	cursors := make([][]int32, len(runs)-1)
	fanOut(len(cursors), func(w int) {
		scatters[w], cursors[w] = newRowScatter(t), make([]int32, numArcs)
		t.packRun(t.order[runs[w]:runs[w+1]], scatters[w], cursors[w], nil)
	})
	t.triOff = make([]int32, numArcs+1)
	next := int32(0)
	for p := range numArcs {
		t.triOff[p] = next
		for _, cursor := range cursors {
			next, cursor[p] = next+cursor[p], next
		}
	}
	t.triOff[numArcs] = next
	t.tris = make([]triangle, next)
	fanOut(len(cursors), func(w int) {
		t.packRun(t.order[runs[w]:runs[w+1]], scatters[w], cursors[w], t.tris)
	})
}

// splitMiddles cuts the contraction order into at most workers non-empty
// runs of about equal packing work and returns their bounds as indices
// into t.order. A middle of degree d costs packRun its d(d-1)/2 pairs
// plus one scatter of each of its d heads' rows.
func (t *Topology) splitMiddles(workers int) []int {
	deg := func(v graph.NodeID) int { return int(t.offsets[v+1] - t.offsets[v]) }
	work := func(v graph.NodeID) int {
		w := deg(v) * (deg(v) - 1) / 2
		for _, x := range t.heads[t.offsets[v]:t.offsets[v+1]] {
			w += deg(x)
		}
		return w
	}
	total := 0
	for _, v := range t.order {
		total += work(v)
	}
	bounds := []int{0}
	done := 0
	for i, v := range t.order[:len(t.order)-1] {
		done += work(v)
		if k := len(bounds); k < workers && done*workers >= total*k {
			bounds = append(bounds, i+1)
		}
	}
	return append(bounds, len(t.order))
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

// packRun visits every lower triangle through the given middles, in
// their order: every pair x, y of a middle's row with rank x < rank y
// that the skeleton joins. On a graph whose arcs all run both ways every
// such pair is joined, because contraction connected each in/out pair
// through the middle; on a directed one a pair of two out-heads (or two
// in-heads) may not be, and is skipped. For each triangle it bumps cursor
// at the target arc's position p, first storing the triangle at
// tris[cursor[p]] when tris is not nil: from zeroed cursors a run counts
// each arc's triangles, and from each arc's first slot it fills them.
//
// A middle gives each target at most one triangle, so the order within a
// middle is free. Its row is visited by rank: each x is paired with the
// heads after it alone, with no rank test, and x's row is scattered once.
func (t *Topology) packRun(middles []graph.NodeID, sc *rowScatter, cursor []int32, tris []triangle) {
	var byRank []uint64 // rank<<32 | position, for one middle's row
	for _, v := range middles {
		byRank = byRank[:0]
		for i := t.offsets[v]; i < t.offsets[v+1]; i++ {
			byRank = append(byRank, uint64(t.rank[t.heads[i]])<<32|uint64(i))
		}
		slices.Sort(byRank)
		for a, kx := range byRank {
			i := int32(uint32(kx))
			x := t.heads[i]
			sc.scatter(x)
			xlo, xhi := t.offsets[x], t.offsets[x+1]
			for _, ky := range byRank[a+1:] {
				j := int32(uint32(ky))
				if p := sc.at[t.heads[j]]; p >= xlo && p < xhi {
					if tris != nil {
						tris[cursor[p]] = triangle{lo: i, hi: j}
					}
					cursor[p]++
				}
			}
		}
	}
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
