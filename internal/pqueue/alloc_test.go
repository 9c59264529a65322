package pqueue

import "testing"

// TestIndexedHotOpsZeroAlloc is the gate test behind the //atis:hotpath
// annotations on the Indexed heap's query-loop operations: once the
// backing slices have grown to the working size (AllocsPerRun's warm-up
// call does that), a full push/update/peek/pop/reset cycle allocates
// nothing, including a Reset that drops still-queued items (a search that
// stops at its destination) and a Peek at the drained heap.
func TestIndexedHotOpsZeroAlloc(t *testing.T) {
	h := NewIndexed(64)
	allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < 32; i++ {
			h.PushTie(i, float64(63-i), float64(i))
		}
		h.updateTie(10, 1.5, 0)
		h.PushOrUpdateTie(10, 0.5, 0) // present: update path
		h.PushOrUpdateTie(40, 7, 0)   // absent: push path
		if _, _, ok := h.Peek(); !ok {
			t.Error("Peek on a non-empty heap reported empty")
		}
		for i := 0; i < 16; i++ {
			h.PopMin()
		}
		h.Reset() // 17 items still queued
		if _, _, ok := h.Peek(); ok {
			t.Error("Peek after Reset reported an item")
		}
		if _, _, ok := h.PopMin(); ok {
			t.Error("PopMin after Reset reported an item")
		}
	})
	if allocs != 0 {
		t.Fatalf("hot heap ops allocate %.1f times per cycle, want 0", allocs)
	}

	// Misuse panics with a formatted message; that is a caller's bug, not
	// a query's cost, so it is outside the allocation contract.
	for name, misuse := range map[string]func(){
		"push out of range": func() { h.PushTie(64, 0, 0) },
		"push twice":        func() { h.PushTie(1, 0, 0); h.PushTie(1, 0, 0) },
		"update absent":     func() { h.updateTie(2, 0, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			misuse()
		}()
	}
}
