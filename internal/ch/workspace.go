package ch

import (
	"math"
	"sync"

	"repro/internal/graph"
)

// workspace bundles the mutable per-query state of a CH query: forward and
// backward distance labels and parents, indexed by node. Between queries
// every distance is +Inf: a query writes labels only on the ancestor
// chains of its two endpoints and puts +Inf back on each chain node once
// it has walked past it, so a pooled workspace never pays an O(n) clear.
// Parents are read only where this query wrote a finite label and are
// never cleared. Owned by exactly one query at a time and recycled
// through a sync.Pool, so steady-state queries allocate only the returned
// path slice.
type workspace struct {
	df, db []float64
	pf, pb []graph.NodeID
	packed []graph.NodeID // scratch for the pre-unpack meeting path
	nodes  []graph.NodeID // scratch for shortcut unpacking
}

var workspacePool = sync.Pool{New: func() any { return &workspace{} }}

// acquireWorkspace returns a workspace ready for a query over n nodes.
func acquireWorkspace(n int) *workspace {
	ws := workspacePool.Get().(*workspace)
	if len(ws.df) < n {
		//lint:ignore hotpath label storage reallocates only when the graph grows; steady state reuses it
		ws.grow(n)
	}
	return ws
}

// grow replaces the label arrays with n-node ones at +Inf.
func (ws *workspace) grow(n int) {
	ws.df = make([]float64, n)
	ws.db = make([]float64, n)
	ws.pf = make([]graph.NodeID, n)
	ws.pb = make([]graph.NodeID, n)
	for u := range ws.df {
		ws.df[u], ws.db[u] = math.Inf(1), math.Inf(1)
	}
}

// releaseWorkspace returns ws to the pool. Callers must not retain
// references into its arrays (results are built before release).
func releaseWorkspace(ws *workspace) { workspacePool.Put(ws) }
