package pqueue

import "testing"

func TestIndexedResetRetainsStorage(t *testing.T) {
	h := NewIndexed(8)
	for i := 0; i < 8; i++ {
		h.Push(i, float64(8-i))
	}
	// Pop a few so Reset must clear both popped (-1 already) and live slots.
	h.PopMin()
	h.PopMin()
	h.Reset()
	if h.Len() != 0 {
		t.Fatalf("Len after Reset = %d, want 0", h.Len())
	}
	if len(h.pos) != 8 {
		t.Fatalf("Capacity after Reset = %d, want 8", len(h.pos))
	}
	// Every item must be pushable again (stale pos entries would panic).
	for i := 0; i < 8; i++ {
		if h.Contains(i) {
			t.Fatalf("Contains(%d) true after Reset", i)
		}
		h.Push(i, float64(i))
	}
	for i := 0; i < 8; i++ {
		item, _, ok := h.PopMin()
		if !ok || item != i {
			t.Fatalf("PopMin = %d,%v, want %d,true", item, ok, i)
		}
	}
}

func TestIndexedGrow(t *testing.T) {
	h := NewIndexed(2)
	h.Push(0, 5)
	h.Grow(6)
	if len(h.pos) != 6 {
		t.Fatalf("Capacity = %d, want 6", len(h.pos))
	}
	h.Push(5, 1) // previously out of range
	if item, _, _ := h.PopMin(); item != 5 {
		t.Fatalf("PopMin = %d, want 5", item)
	}
	if item, _, _ := h.PopMin(); item != 0 {
		t.Fatalf("PopMin = %d, want 0", item)
	}
	h.Grow(3) // shrinking request is a no-op
	if len(h.pos) != 6 {
		t.Fatalf("Capacity after no-op Grow = %d, want 6", len(h.pos))
	}
}

func TestPlainReset(t *testing.T) {
	h := NewPlain(4)
	h.Push(1, 1)
	h.Push(2, 2)
	h.Reset()
	if h.Len() != 0 {
		t.Fatalf("Len after Reset = %d, want 0", h.Len())
	}
	h.Push(3, 3)
	if e, ok := h.PopMin(); !ok || e.Item != 3 {
		t.Fatalf("PopMin after Reset = %+v,%v", e, ok)
	}
}
