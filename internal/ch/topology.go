package ch

import (
	"fmt"
	"runtime"
	"sync"

	"repro/internal/graph"
	"repro/internal/pqueue"
)

// skeleton is one upward half of the hierarchy in structural CSR form:
// arcs of node u occupy heads[offsets[u]:offsets[u+1]]. It carries no
// weights — those live in the Metric layer, one slice per half, indexed
// by the same positions.
type skeleton struct {
	offsets []int32
	heads   []graph.NodeID
}

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
	n int // nodes of the source graph
	m int // directed edges of the source graph (structural fingerprint)

	rank  []int32        // contraction order; higher = more important
	order []graph.NodeID // order[r] = the node contracted r-th

	// fwd holds upward arcs of the original direction (tail rank < head
	// rank); bwd holds upward arcs of the reverse graph, i.e. the original
	// arc x→y with rank(x) > rank(y) sits in bwd at node y with head x.
	// Every skeleton arc lives in exactly one half, at its lower-ranked
	// endpoint — which is what lets customization finalize all arcs of a
	// node in one contraction-order sweep.
	fwd, bwd skeleton

	// Lower-triangle lists, CSR-indexed by global arc id (fwd arcs are
	// ids [0,F), bwd arcs [F,F+B)). Triangle ti of arc (u,w) names a
	// middle node v contracted before both endpoints, with triDown[ti]
	// the bwd-half position of arc u→v and triUp[ti] the fwd-half
	// position of arc v→w: customization relaxes
	// w(u,w) ← min(w(u,w), w(u→v) + w(v→w)) over these entries.
	triOff  []int32
	triMid  []graph.NodeID
	triDown []int32
	triUp   []int32

	// edgePos maps the i-th directed edge of the source graph (CSR
	// order, the order Neighbors visits) to its skeleton arc's global
	// id, -1 for self loops. Customization seeds base costs through it
	// in one O(m) pass without any adjacency lookups.
	edgePos []int32

	shortcuts int // skeleton arcs not backed by any original edge

	// parent is the elimination tree of both halves' undirected union in
	// contraction order (graph.Invalid at roots): the head of every
	// skeleton arc is a proper ancestor of its tail, so an upward search
	// from s labels nothing off s's ancestor chain.
	parent []graph.NodeID
}

// NumNodes returns the number of nodes the topology covers.
func (t *Topology) NumNodes() int { return t.n }

// Shortcuts returns the number of shortcut arcs in the skeleton on top of
// the original edge set.
func (t *Topology) Shortcuts() int { return t.shortcuts }

// Triangles returns the total number of lower-triangle entries —
// the work one customization pass performs.
func (t *Topology) Triangles() int { return len(t.triMid) }

// Arcs returns the total number of skeleton arcs across both halves.
func (t *Topology) Arcs() int { return len(t.fwd.heads) + len(t.bwd.heads) }

// Rank returns node u's contraction rank (0 = contracted first, least
// important). It panics on out-of-range nodes, mirroring slice indexing.
func (t *Topology) Rank(u graph.NodeID) int { return int(t.rank[u]) }

// Matches reports whether g has the node and edge counts the topology was
// built from. Graph structure is immutable in this codebase, so matching
// counts mean the topology's skeleton is valid for g; callers swapping in
// a structurally different graph with coincidentally equal counts violate
// the contract and must rebuild.
func (t *Topology) Matches(g *graph.Graph) bool {
	return g.NumNodes() == t.n && g.NumEdges() == t.m
}

// findFwd returns the fwd-half position of arc u→w (rank w above rank u).
// The arc exists for every consecutive pair of a packed query path; a miss
// means the caller broke that invariant.
func (t *Topology) findFwd(u, w graph.NodeID) int32 {
	for p := t.fwd.offsets[u]; p < t.fwd.offsets[u+1]; p++ {
		if t.fwd.heads[p] == w {
			return p
		}
	}
	panic(fmt.Sprintf("ch: no upward arc %d→%d in the skeleton", u, w))
}

// findBwd returns the bwd-half position of the original arc x→y with
// rank(x) above rank(y) — stored at y with head x.
func (t *Topology) findBwd(y, x graph.NodeID) int32 {
	for p := t.bwd.offsets[y]; p < t.bwd.offsets[y+1]; p++ {
		if t.bwd.heads[p] == x {
			return p
		}
	}
	panic(fmt.Sprintf("ch: no downward arc %d→%d in the skeleton", x, y))
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
// Initial priorities — one independent pair count per node — are computed
// across a GOMAXPROCS-bounded worker pool, each worker with its own mark
// set; the contraction loop itself is sequential because each contraction
// reshapes the graph the next evaluates against, with the classic
// lazy-update rule re-queueing a popped candidate whose priority has
// deteriorated past the next key.
func BuildTopology(g *graph.Graph, opts Options) (*Topology, error) {
	n := g.NumNodes()
	if n == 0 {
		return nil, fmt.Errorf("ch: empty graph")
	}
	b := newTBuilder(g)

	prio := make([]float64, n)
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	var wg sync.WaitGroup
	chunk := (n + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo, hi := w*chunk, (w+1)*chunk
		if hi > n {
			hi = n
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			marks := newMarkSet(n)
			for v := lo; v < hi; v++ {
				prio[v] = b.priority(graph.NodeID(v), marks)
			}
		}(lo, hi)
	}
	wg.Wait()

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

	return b.freeze(g), nil
}

// freeze packs the contracted skeleton into the Topology's CSR halves,
// enumerates every lower triangle from the middle nodes' rows, and maps
// the source graph's edges onto skeleton arcs.
func (b *tbuilder) freeze(g *graph.Graph) *Topology {
	t := &Topology{
		n:     b.n,
		m:     g.NumEdges(),
		rank:  b.rank,
		order: b.order,
		fwd:   packSkeleton(b.fwd),
		bwd:   packSkeleton(b.bwd),
	}
	numArcs := t.Arcs()
	fs, bs := newRowScatter(&t.fwd), newRowScatter(&t.bwd)

	// Counting sort of the triangles by target arc id into CSR form. The
	// enumeration visits middles in contraction order and gives a target
	// at most one triangle per middle, so each arc's list comes out
	// ordered by its middles' contraction order.
	t.triOff = make([]int32, numArcs+1)
	t.eachTriangle(fs, bs, func(_ graph.NodeID, _, _, id int32) {
		t.triOff[id+1]++
	})
	for i := 0; i < numArcs; i++ {
		t.triOff[i+1] += t.triOff[i]
	}
	numTris := t.triOff[numArcs]
	t.triMid = make([]graph.NodeID, numTris)
	t.triDown = make([]int32, numTris)
	t.triUp = make([]int32, numTris)
	cursor := make([]int32, numArcs)
	t.eachTriangle(fs, bs, func(v graph.NodeID, down, up, id int32) {
		at := t.triOff[id] + cursor[id]
		cursor[id]++
		t.triMid[at] = v
		t.triDown[at] = down
		t.triUp[at] = up
	})

	// Edge → arc mapping plus the base-backed arc census.
	t.edgePos = make([]int32, g.NumEdges())
	baseBacked := make([]bool, numArcs)
	base := 0
	ei := 0
	for u := graph.NodeID(0); int(u) < b.n; u++ {
		g.Neighbors(u, func(a graph.Arc) {
			if a.Head == u {
				t.edgePos[ei] = -1
				ei++
				return
			}
			id := t.arcID(fs, bs, u, a.Head)
			t.edgePos[ei] = id
			ei++
			if !baseBacked[id] {
				baseBacked[id] = true
				base++
			}
		})
	}
	t.shortcuts = numArcs - base
	t.parent = t.eliminationTree()
	return t
}

// eliminationTree computes the skeleton's elimination tree with Liu's
// algorithm: visit nodes v in contraction order and, for each lower
// neighbour u, climb from u to the root of its current subtree, pointing
// every node passed at v (path compression), and hang that root below v.
// A parent is thus the lowest-ranked node adjacent to the child's whole
// subtree, not just to the child: the skeleton keeps only in/out pairs,
// so a node's upper neighbours need not be adjacent to each other.
func (t *Topology) eliminationTree() []graph.NodeID {
	// Every arc sits at its lower endpoint, so transposing both halves
	// lists each node's lower neighbours.
	halves := []*skeleton{&t.fwd, &t.bwd}
	lowOff := make([]int32, t.n+1)
	for _, sk := range halves {
		for _, w := range sk.heads {
			lowOff[w+1]++
		}
	}
	for v := 0; v < t.n; v++ {
		lowOff[v+1] += lowOff[v]
	}
	low := make([]graph.NodeID, lowOff[t.n])
	cursor := append([]int32(nil), lowOff[:t.n]...)
	for _, sk := range halves {
		for u := graph.NodeID(0); int(u) < t.n; u++ {
			for _, w := range sk.heads[sk.offsets[u]:sk.offsets[u+1]] {
				low[cursor[w]] = u
				cursor[w]++
			}
		}
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

// eachTriangle calls fn for every lower triangle: middle v, the bwd-half
// position of u→v, the fwd-half position of v→w, and the global id of
// u→w, for every u in v's bwd row and w ≠ u in its fwd row — exactly
// the in/out pairs contraction connected through v. Middles come in
// contraction order. Within one middle, targets owned by u (fwd row of
// u) are visited u-major and those owned by w (bwd row of w) w-major,
// so each owner's row is scattered once per middle.
func (t *Topology) eachTriangle(fs, bs *rowScatter, fn func(v graph.NodeID, down, up, id int32)) {
	F := int32(len(t.fwd.heads))
	for _, v := range t.order {
		dLo, dHi := t.bwd.offsets[v], t.bwd.offsets[v+1]
		uLo, uHi := t.fwd.offsets[v], t.fwd.offsets[v+1]
		for pd := dLo; pd < dHi; pd++ {
			u := t.bwd.heads[pd]
			for pu := uLo; pu < uHi; pu++ {
				if w := t.fwd.heads[pu]; t.rank[u] < t.rank[w] {
					fn(v, pd, pu, fs.pos(u, w))
				}
			}
		}
		for pu := uLo; pu < uHi; pu++ {
			w := t.fwd.heads[pu]
			for pd := dLo; pd < dHi; pd++ {
				if u := t.bwd.heads[pd]; t.rank[w] < t.rank[u] {
					fn(v, pd, pu, F+bs.pos(w, u))
				}
			}
		}
	}
}

// arcID returns the global id of the skeleton arc u→w (u ≠ w): its
// fwd-half position at u when w ranks higher, else F plus its bwd-half
// position at w.
func (t *Topology) arcID(fs, bs *rowScatter, u, w graph.NodeID) int32 {
	if t.rank[u] < t.rank[w] {
		return fs.pos(u, w)
	}
	return int32(len(t.fwd.heads)) + bs.pos(w, u)
}

// rowScatter resolves arc positions one skeleton row at a time: scattering
// row r writes at[h] = position of r's arc to h, after which any arc of
// that row is one array read. Entries of earlier rows linger, but a
// lookup only ever asks for an arc the row holds, which the scatter has
// just written.
type rowScatter struct {
	sk  *skeleton
	at  []int32
	row graph.NodeID // the scattered row; graph.Invalid before the first
}

func newRowScatter(sk *skeleton) *rowScatter {
	return &rowScatter{sk: sk, at: make([]int32, len(sk.offsets)-1), row: graph.Invalid}
}

// pos returns the position of the arc from row r to h.
func (s *rowScatter) pos(r, h graph.NodeID) int32 {
	if s.row != r {
		for p := s.sk.offsets[r]; p < s.sk.offsets[r+1]; p++ {
			s.at[s.sk.heads[p]] = p
		}
		s.row = r
	}
	return s.at[h]
}

// packSkeleton concatenates per-node rows into CSR form.
func packSkeleton(rows [][]graph.NodeID) skeleton {
	offsets := make([]int32, len(rows)+1)
	for u, row := range rows {
		offsets[u+1] = offsets[u] + int32(len(row))
	}
	heads := make([]graph.NodeID, 0, offsets[len(rows)])
	for _, row := range rows {
		heads = append(heads, row...)
	}
	return skeleton{offsets: offsets, heads: heads}
}
