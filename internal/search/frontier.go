package search

import (
	"math"

	"repro/internal/pqueue"
)

// frontier abstracts "the frontierSet" so BestFirstCtx can run with any of
// the management strategies of Section 4: an indexed heap (decrease-key),
// a linear-scan open list (the relational analogue), or a
// duplicate-tolerant heap. Entries carry a primary priority (f = dist + estimate) and a
// secondary tie-break key (−dist): among equal f the deeper node is
// selected, keeping plateau behaviour deterministic and sensible.
type frontier interface {
	push(item int, priority, tie float64)
	pushOrUpdate(item int, priority, tie float64)
	popMin() (item int, ok bool)
	len() int
	// ops reports insertions and removals performed so far this query, for
	// Trace.HeapPushes/HeapPops.
	ops() (pushes, pops uint64)
}

func newFrontier(kind FrontierKind, capacity int) frontier {
	switch kind {
	case FrontierScan:
		return newScanFrontier(capacity)
	case FrontierDuplicates:
		return &dupFrontier{h: pqueue.NewPlain(capacity)}
	default:
		return &heapFrontier{h: pqueue.NewIndexed(capacity)}
	}
}

// heapFrontier: indexed heap with decrease-key.
type heapFrontier struct {
	h *pqueue.Indexed
}

func (f *heapFrontier) push(item int, priority, tie float64) {
	f.h.PushTie(item, priority, tie)
}
func (f *heapFrontier) pushOrUpdate(item int, priority, tie float64) {
	f.h.PushOrUpdateTie(item, priority, tie)
}
func (f *heapFrontier) len() int { return f.h.Len() }
func (f *heapFrontier) popMin() (int, bool) {
	item, _, ok := f.h.PopMin()
	return item, ok
}
func (f *heapFrontier) ops() (uint64, uint64) {
	st := f.h.OpStats()
	return st.Pushes, st.Pops
}

// scanFrontier keeps priorities in a dense array and selects the minimum by
// scanning the open members, the way a relational scan over status = "open"
// tuples does. Selection is O(frontier size); membership and update are
// O(1). Ties break by (tie, node id) like the heap, so all frontier kinds
// expand the same node sequence.
type scanFrontier struct {
	prio    []float64
	tie     []float64
	open    []bool
	members []int // unordered open list with lazy deletion markers in open[]
	n       int   // live member count
	pushes  uint64
	pops    uint64
}

func newScanFrontier(capacity int) *scanFrontier {
	return &scanFrontier{
		prio: make([]float64, capacity),
		tie:  make([]float64, capacity),
		open: make([]bool, capacity),
	}
}

func (f *scanFrontier) push(item int, priority, tie float64) {
	if f.open[item] {
		f.prio[item] = priority
		f.tie[item] = tie
		return
	}
	f.open[item] = true
	f.prio[item] = priority
	f.tie[item] = tie
	f.members = append(f.members, item)
	f.n++
	f.pushes++
}

func (f *scanFrontier) pushOrUpdate(item int, priority, tie float64) {
	f.push(item, priority, tie)
}

func (f *scanFrontier) len() int { return f.n }

func (f *scanFrontier) popMin() (int, bool) {
	if f.n == 0 {
		return 0, false
	}
	// Compact dead entries while scanning for the minimum.
	best, bestTie, bestItem := math.Inf(1), math.Inf(1), -1
	live := f.members[:0]
	for _, m := range f.members {
		if !f.open[m] {
			continue
		}
		live = append(live, m)
		better := f.prio[m] < best ||
			(f.prio[m] == best && f.tie[m] < bestTie) ||
			(f.prio[m] == best && f.tie[m] == bestTie && m < bestItem)
		if better {
			best, bestTie, bestItem = f.prio[m], f.tie[m], m
		}
	}
	f.members = live
	if bestItem < 0 {
		f.n = 0
		return 0, false
	}
	f.open[bestItem] = false
	f.n--
	f.pops++
	return bestItem, true
}

func (f *scanFrontier) ops() (uint64, uint64) { return f.pushes, f.pops }

// dupFrontier allows duplicates; pushOrUpdate degrades to push, creating the
// redundant entries Section 4 warns about. Stale pops are filtered by the
// caller via its closed[] set.
type dupFrontier struct {
	h      *pqueue.Plain
	pushes uint64
	pops   uint64
}

func (f *dupFrontier) push(item int, priority, tie float64) {
	f.h.PushTie(item, priority, tie)
	f.pushes++
}
func (f *dupFrontier) pushOrUpdate(item int, priority, tie float64) {
	f.h.PushTie(item, priority, tie)
	f.pushes++
}
func (f *dupFrontier) len() int { return f.h.Len() }
func (f *dupFrontier) popMin() (int, bool) {
	e, ok := f.h.PopMin()
	if ok {
		f.pops++
	}
	return e.Item, ok
}
func (f *dupFrontier) ops() (uint64, uint64) { return f.pushes, f.pops }
