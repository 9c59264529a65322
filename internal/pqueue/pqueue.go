// Package pqueue provides the priority queues used by the in-memory search
// algorithms: an indexed binary min-heap with decrease-key (the standard
// frontier-set structure for Dijkstra and A*), and a plain binary min-heap
// without indexing (used by the "allow duplicates" frontier-management
// ablation, one of the design decisions Section 4 of the paper discusses).
//
// Items are dense non-negative integer keys — node ids in practice — with
// float64 priorities. Ties are broken by the smaller key so that runs are
// fully deterministic, which the experiment harness relies on when matching
// the paper's iteration counts.
package pqueue

import "fmt"

// Indexed is a binary min-heap over dense integer items in [0, capacity)
// supporting O(log n) push, pop-min and update (decrease- or increase-key,
// through PushOrUpdate). Each item may appear at most once.
type Indexed struct {
	items []int     // heap of item keys
	prio  []float64 // parallel priorities
	tie   []float64 // secondary priorities, compared when prio ties
	pos   []int     // pos[item] = index in items, or -1 if absent
	ops   OpStats   // since the last Reset (or construction)
}

// OpStats counts heap operations since the last Reset. The search kernels
// read it once per query to report heap work through the telemetry layer;
// the fields are plain integers because a heap is owned by exactly one
// query at a time.
type OpStats struct {
	Pushes  uint64 // successful Push/PushTie insertions
	Pops    uint64 // successful PopMin removals
	Updates uint64 // PushOrUpdateTie priority changes of a queued item (decrease- or increase-key)
}

// OpStats returns the operation counts accumulated since the last Reset.
func (h *Indexed) OpStats() OpStats { return h.ops }

// NewIndexed returns an indexed heap able to hold items 0..capacity-1.
func NewIndexed(capacity int) *Indexed {
	pos := make([]int, capacity)
	for i := range pos {
		pos[i] = -1
	}
	return &Indexed{pos: pos}
}

// Len returns the number of items currently queued.
func (h *Indexed) Len() int { return len(h.items) }

// Reset empties the heap while retaining all backing storage, so a pooled
// workspace can reuse it across queries without reallocation. Cost is
// O(queued items), not O(capacity): only the position entries of items
// still queued need clearing.
//
//atis:hotpath
func (h *Indexed) Reset() {
	for _, item := range h.items {
		h.pos[item] = -1
	}
	h.items = h.items[:0]
	h.prio = h.prio[:0]
	h.tie = h.tie[:0]
	h.ops = OpStats{}
}

// Grow extends the heap's item range to at least [0, capacity), retaining
// queued entries and backing storage. It is a no-op when the heap already
// covers the range.
func (h *Indexed) Grow(capacity int) {
	if capacity <= len(h.pos) {
		return
	}
	if capacity <= cap(h.pos) {
		old := len(h.pos)
		h.pos = h.pos[:capacity]
		for i := old; i < capacity; i++ {
			h.pos[i] = -1
		}
		return
	}
	pos := make([]int, capacity)
	copy(pos, h.pos)
	for i := len(h.pos); i < capacity; i++ {
		pos[i] = -1
	}
	h.pos = pos
}

// Contains reports whether item is currently queued.
func (h *Indexed) Contains(item int) bool {
	return item >= 0 && item < len(h.pos) && h.pos[item] >= 0
}

// Push inserts item with the given priority and a zero tie-break key. It
// panics if the item is out of range or already queued: both indicate a
// logic error in the caller, the same class of bug as indexing a slice out
// of bounds.
func (h *Indexed) Push(item int, priority float64) { h.PushTie(item, priority, 0) }

// PushTie inserts item with a priority and a secondary tie-break key: among
// equal priorities, smaller tie wins (and equal ties fall back to the
// smaller item key). A* uses tie = −g to prefer the deeper node when f
// values tie, the standard way to avoid plateau flooding on uniform grids.
//
//atis:hotpath
func (h *Indexed) PushTie(item int, priority, tie float64) {
	if item < 0 || item >= len(h.pos) {
		panic(fmt.Sprintf("pqueue: item %d out of range [0,%d)", item, len(h.pos)))
	}
	if h.pos[item] >= 0 {
		panic(fmt.Sprintf("pqueue: item %d pushed twice; use PushOrUpdate", item))
	}
	h.items = append(h.items, item)
	h.prio = append(h.prio, priority)
	h.tie = append(h.tie, tie)
	h.pos[item] = len(h.items) - 1
	h.up(len(h.items) - 1)
	h.ops.Pushes++
}

// updateTie changes the priority and tie-break key of a queued item.
//
//atis:hotpath
func (h *Indexed) updateTie(item int, priority, tie float64) {
	if !h.Contains(item) {
		panic(fmt.Sprintf("pqueue: updateTie of item %d which is not queued", item))
	}
	i := h.pos[item]
	h.prio[i] = priority
	h.tie[i] = tie
	h.up(i)
	h.down(h.pos[item])
	h.ops.Updates++
}

// PushOrUpdate inserts the item if absent, otherwise updates its priority.
func (h *Indexed) PushOrUpdate(item int, priority float64) {
	h.PushOrUpdateTie(item, priority, 0)
}

// PushOrUpdateTie inserts the item if absent, otherwise updates its priority
// and tie-break key.
//
//atis:hotpath
func (h *Indexed) PushOrUpdateTie(item int, priority, tie float64) {
	if h.Contains(item) {
		h.updateTie(item, priority, tie)
	} else {
		h.PushTie(item, priority, tie)
	}
}

// Peek returns the minimum item and its priority without removing it. ok is
// false when the heap is empty.
//
//atis:hotpath
func (h *Indexed) Peek() (item int, priority float64, ok bool) {
	if len(h.items) == 0 {
		return 0, 0, false
	}
	return h.items[0], h.prio[0], true
}

// PopMin removes and returns the item with the smallest priority (smallest
// key among ties). ok is false when the heap is empty.
//
//atis:hotpath
func (h *Indexed) PopMin() (item int, priority float64, ok bool) {
	if len(h.items) == 0 {
		return 0, 0, false
	}
	item, priority = h.items[0], h.prio[0]
	last := len(h.items) - 1
	h.swap(0, last)
	h.pos[item] = -1
	h.items = h.items[:last]
	h.prio = h.prio[:last]
	h.tie = h.tie[:last]
	if last > 0 {
		h.down(0)
	}
	h.ops.Pops++
	return item, priority, true
}

// less orders heap slots by (priority, tie, item key) for determinism.
func (h *Indexed) less(i, j int) bool {
	if h.prio[i] != h.prio[j] {
		return h.prio[i] < h.prio[j]
	}
	if h.tie[i] != h.tie[j] {
		return h.tie[i] < h.tie[j]
	}
	return h.items[i] < h.items[j]
}

func (h *Indexed) swap(i, j int) {
	h.items[i], h.items[j] = h.items[j], h.items[i]
	h.prio[i], h.prio[j] = h.prio[j], h.prio[i]
	h.tie[i], h.tie[j] = h.tie[j], h.tie[i]
	h.pos[h.items[i]] = i
	h.pos[h.items[j]] = j
}

func (h *Indexed) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			return
		}
		h.swap(i, parent)
		i = parent
	}
}

func (h *Indexed) down(i int) {
	n := len(h.items)
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && h.less(l, smallest) {
			smallest = l
		}
		if r < n && h.less(r, smallest) {
			smallest = r
		}
		if smallest == i {
			return
		}
		h.swap(i, smallest)
		i = smallest
	}
}

// Entry is one queued (item, priority, tie) triple of a plain heap.
type Entry struct {
	Item     int
	Priority float64
	Tie      float64
}

// Plain is a binary min-heap that permits duplicate items. It backs the
// "allow duplicates in the frontierSet" strategy from Section 4 of the
// paper, where stale entries are skipped at pop time by the caller.
type Plain struct {
	entries []Entry
}

// NewPlain returns an empty plain heap with the given capacity hint.
func NewPlain(capacityHint int) *Plain {
	return &Plain{entries: make([]Entry, 0, capacityHint)}
}

// Len returns the number of queued entries, counting duplicates.
func (h *Plain) Len() int { return len(h.entries) }

// Reset empties the heap while retaining the backing slice.
func (h *Plain) Reset() { h.entries = h.entries[:0] }

// Push inserts an entry; duplicates of the same item are allowed.
func (h *Plain) Push(item int, priority float64) { h.PushTie(item, priority, 0) }

// PushTie inserts an entry with a secondary tie-break key.
func (h *Plain) PushTie(item int, priority, tie float64) {
	h.entries = append(h.entries, Entry{Item: item, Priority: priority, Tie: tie})
	i := len(h.entries) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !h.lessEntry(i, parent) {
			break
		}
		h.entries[i], h.entries[parent] = h.entries[parent], h.entries[i]
		i = parent
	}
}

// PopMin removes and returns the minimum entry; ok is false when empty.
func (h *Plain) PopMin() (e Entry, ok bool) {
	if len(h.entries) == 0 {
		return Entry{}, false
	}
	e = h.entries[0]
	last := len(h.entries) - 1
	h.entries[0] = h.entries[last]
	h.entries = h.entries[:last]
	i := 0
	n := len(h.entries)
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && h.lessEntry(l, smallest) {
			smallest = l
		}
		if r < n && h.lessEntry(r, smallest) {
			smallest = r
		}
		if smallest == i {
			break
		}
		h.entries[i], h.entries[smallest] = h.entries[smallest], h.entries[i]
		i = smallest
	}
	return e, true
}

func (h *Plain) lessEntry(i, j int) bool {
	a, b := h.entries[i], h.entries[j]
	if a.Priority != b.Priority {
		return a.Priority < b.Priority
	}
	if a.Tie != b.Tie {
		return a.Tie < b.Tie
	}
	return a.Item < b.Item
}
