package search

import (
	"math"
	"sync"

	"repro/internal/graph"
	"repro/internal/pqueue"
)

// labelSet is one epoch-stamped set of per-node search labels (cost label,
// tree pointer, status flags). Stamping replaces the O(n) per-query clear the
// paper's storage-management analysis charges every run with: a label is
// valid only when its stamp equals the set's current epoch, so "clearing" the
// whole array is a single counter increment and each node is lazily
// initialised the first time a query touches it. Work per query becomes
// proportional to the nodes the search visits, not to the graph size.
type labelSet struct {
	epoch uint64
	stamp []uint64
	dist  []float64
	prev  []graph.NodeID
	flags []uint8
}

const (
	flagClosed   uint8 = 1 << 0 // node settled (Dijkstra/A* closed set)
	flagFrontier uint8 = 1 << 1 // node queued in Iterative's frontier
	flagBanned   uint8 = 1 << 2 // node barred from a restricted search
)

// reset prepares the set for a fresh query over n nodes. Growth reallocates;
// otherwise the arrays are retained and only the epoch advances.
func (l *labelSet) reset(n int) {
	if cap(l.stamp) < n {
		l.stamp = make([]uint64, n)
		l.dist = make([]float64, n)
		l.prev = make([]graph.NodeID, n)
		l.flags = make([]uint8, n)
		l.epoch = 0
	}
	l.stamp = l.stamp[:n]
	l.dist = l.dist[:n]
	l.prev = l.prev[:n]
	l.flags = l.flags[:n]
	l.epoch++
}

// touch brings node u's label into the current epoch, lazily initialising it
// to the unlabeled state (+Inf cost, no tree pointer, no flags). Every write
// path and every read that may precede a write must touch first.
func (l *labelSet) touch(u graph.NodeID) {
	if l.stamp[u] != l.epoch {
		l.stamp[u] = l.epoch
		l.dist[u] = math.Inf(1)
		l.prev[u] = graph.Invalid
		l.flags[u] = 0
	}
}

// distAt reads node u's cost label without stamping: +Inf when the label is
// stale (untouched this query).
func (l *labelSet) distAt(u graph.NodeID) float64 {
	if l.stamp[u] != l.epoch {
		return math.Inf(1)
	}
	return l.dist[u]
}

// Workspace bundles the per-query mutable state of every algorithm in this
// package: two label sets (forward, and backward for bidirectional search),
// two indexed heaps, the frontier scratch slices of the Iterative
// algorithm, and the settled list of a restricted search. Workspaces are
// recycled through an internal sync.Pool, so a steady stream of queries
// over the same graph reuses the same arrays and performs zero O(n)
// allocations or clears after warm-up — the direct answer to the paper's
// conclusion that storage management, not algorithmic search, dominates
// single-pair cost.
//
// A Workspace is owned by exactly one query at a time; the pool hands each
// concurrent query its own instance, which makes all package entry points
// safe for concurrent use on an immutable graph without any locking.
type Workspace struct {
	fwd  labelSet
	bwd  labelSet
	heap *pqueue.Indexed
	hf   heapFrontier // reusable frontier adapter around heap
	bh   *pqueue.Indexed

	frontier []graph.NodeID
	next     []graph.NodeID
	settled  []graph.NodeID // a restricted search's settled nodes

	fresh bool // set by the pool's New; cleared on first acquisition
}

var workspacePool = sync.Pool{New: func() any { return &Workspace{fresh: true} }}

// acquireWorkspace returns a workspace ready for a query over n nodes, with
// the forward label set and main heap prepared. Backward state is prepared
// lazily by ensureBackward.
func acquireWorkspace(n int) *Workspace {
	ws := workspacePool.Get().(*Workspace)
	if rec := activeRecorder(); rec != nil {
		rec.ObserveWorkspace(!ws.fresh)
	}
	ws.fresh = false
	ws.fwd.reset(n)
	if ws.heap == nil {
		ws.heap = pqueue.NewIndexed(n)
		ws.hf.h = ws.heap
	} else {
		ws.heap.Grow(n)
		ws.heap.Reset()
	}
	return ws
}

// ensureBackward prepares the backward label set and heap (bidirectional
// search only).
func (ws *Workspace) ensureBackward(n int) {
	ws.bwd.reset(n)
	if ws.bh == nil {
		ws.bh = pqueue.NewIndexed(n)
	} else {
		ws.bh.Grow(n)
		ws.bh.Reset()
	}
}

// releaseWorkspace returns ws to the pool. The caller must not retain any
// reference into the workspace's arrays (results are built before release).
func releaseWorkspace(ws *Workspace) { workspacePool.Put(ws) }

// frontierFor returns the frontier implementation for kind. The default
// heap frontier reuses the workspace's pooled indexed heap; the scan and
// duplicate-tolerant ablation variants allocate per query, as before — they
// exist to measure the paper's design alternatives, not to serve traffic.
func (ws *Workspace) frontierFor(kind FrontierKind, n int) frontier {
	if kind == FrontierHeap {
		return &ws.hf
	}
	return newFrontier(kind, n)
}
