package pqueue

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestIndexedEmpty(t *testing.T) {
	h := NewIndexed(4)
	if h.Len() != 0 {
		t.Errorf("Len = %d", h.Len())
	}
	if _, _, ok := h.PopMin(); ok {
		t.Error("PopMin on empty reported ok")
	}
	if _, _, ok := h.Peek(); ok {
		t.Error("Peek on empty reported ok")
	}
	if h.Contains(0) {
		t.Error("empty heap Contains(0)")
	}
	if h.Contains(-1) || h.Contains(99) {
		t.Error("Contains out of range must be false")
	}
}

func TestIndexedPushPopOrder(t *testing.T) {
	h := NewIndexed(10)
	input := map[int]float64{3: 2.5, 1: 0.5, 7: 9, 2: 0.5, 5: 1}
	for item, p := range input {
		h.Push(item, p)
	}
	// Expected order: priority asc, item asc among ties: 1(0.5), 2(0.5), 5(1), 3(2.5), 7(9).
	want := []int{1, 2, 5, 3, 7}
	for i, w := range want {
		item, _, ok := h.PopMin()
		if !ok || item != w {
			t.Fatalf("pop %d = %d,%v; want %d", i, item, ok, w)
		}
	}
	if h.Len() != 0 {
		t.Errorf("Len after drain = %d", h.Len())
	}
}

func TestIndexedUpdateDecreaseAndIncrease(t *testing.T) {
	h := NewIndexed(5)
	for i := 0; i < 5; i++ {
		h.Push(i, float64(10+i))
	}
	h.PushOrUpdate(4, 1) // decrease-key: 4 jumps to the front
	if item, p, _ := h.Peek(); item != 4 || p != 1 {
		t.Fatalf("after decrease Peek = %d,%v", item, p)
	}
	h.PushOrUpdate(4, 100) // increase-key: 4 drops to the back
	item, _, _ := h.PopMin()
	if item != 0 {
		t.Fatalf("after increase PopMin = %d, want 0", item)
	}
	// Drain; 4 must come out last.
	var lastItem int
	for {
		it, _, ok := h.PopMin()
		if !ok {
			break
		}
		lastItem = it
	}
	if lastItem != 4 {
		t.Errorf("last popped = %d, want 4", lastItem)
	}
}

func TestIndexedPushOrUpdate(t *testing.T) {
	h := NewIndexed(3)
	h.PushOrUpdate(1, 5)
	h.PushOrUpdate(1, 2)
	if item, p, ok := h.Peek(); !ok || item != 1 || p != 2 {
		t.Errorf("Peek = %d,%v,%v; want 1,2,true", item, p, ok)
	}
	if h.Len() != 1 {
		t.Errorf("Len = %d, want 1", h.Len())
	}
}

func TestIndexedPanics(t *testing.T) {
	assertPanics := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		fn()
	}
	h := NewIndexed(2)
	h.Push(0, 1)
	assertPanics("double push", func() { h.Push(0, 2) })
	assertPanics("push out of range", func() { h.Push(5, 1) })
	assertPanics("push negative", func() { h.Push(-1, 1) })
	assertPanics("update absent", func() { h.UpdateTie(1, 1, 0) })
}

// Property: draining the indexed heap yields priorities in sorted order and
// returns exactly the pushed items.
func TestIndexedHeapSortProperty(t *testing.T) {
	f := func(raw []float64) bool {
		if len(raw) > 300 {
			raw = raw[:300]
		}
		h := NewIndexed(len(raw))
		for i, p := range raw {
			h.Push(i, p)
		}
		var prios []float64
		seen := make(map[int]bool)
		for {
			item, p, ok := h.PopMin()
			if !ok {
				break
			}
			if seen[item] {
				return false
			}
			seen[item] = true
			prios = append(prios, p)
		}
		if len(prios) != len(raw) {
			return false
		}
		return sort.Float64sAreSorted(prios)
	}
	cfg := &quick.Config{MaxCount: 50}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// Property: after a random interleaving of pushes, updates and pops the
// heap drains in non-decreasing priority order and pos bookkeeping holds.
func TestIndexedRandomOpsProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 100; trial++ {
		n := 1 + rng.Intn(100)
		h := NewIndexed(n)
		inHeap := make(map[int]bool)
		for op := 0; op < 400; op++ {
			item := rng.Intn(n)
			switch {
			case !inHeap[item]:
				h.Push(item, rng.Float64())
				inHeap[item] = true
			case rng.Intn(2) == 0:
				h.PushOrUpdate(item, rng.Float64())
			default:
				popped, _, _ := h.PopMin()
				delete(inHeap, popped)
			}
			if h.Len() != len(inHeap) {
				t.Fatalf("trial %d: Len %d != tracked %d", trial, h.Len(), len(inHeap))
			}
		}
		last := -1.0
		for {
			_, p, ok := h.PopMin()
			if !ok {
				break
			}
			if p < last {
				t.Fatalf("trial %d: pops out of order: %v after %v", trial, p, last)
			}
			last = p
		}
	}
}

func TestPlainDuplicates(t *testing.T) {
	h := NewPlain(4)
	h.Push(1, 5)
	h.Push(1, 2)
	h.Push(1, 9)
	if h.Len() != 3 {
		t.Fatalf("Len = %d, want 3 (duplicates allowed)", h.Len())
	}
	e, ok := h.PopMin()
	if !ok || e.Item != 1 || e.Priority != 2 {
		t.Errorf("PopMin = %+v,%v", e, ok)
	}
}

func TestPlainEmpty(t *testing.T) {
	h := NewPlain(0)
	if _, ok := h.PopMin(); ok {
		t.Error("PopMin on empty plain heap reported ok")
	}
}

// Property: plain heap drains in sorted order.
func TestPlainHeapSortProperty(t *testing.T) {
	f := func(raw []float64) bool {
		h := NewPlain(len(raw))
		for i, p := range raw {
			h.Push(i%7, p) // deliberately collide items
		}
		var prios []float64
		for {
			e, ok := h.PopMin()
			if !ok {
				break
			}
			prios = append(prios, e.Priority)
		}
		return len(prios) == len(raw) && sort.Float64sAreSorted(prios)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func BenchmarkIndexedPushPop(b *testing.B) {
	const n = 1024
	rng := rand.New(rand.NewSource(1))
	prios := make([]float64, n)
	for i := range prios {
		prios[i] = rng.Float64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h := NewIndexed(n)
		for j := 0; j < n; j++ {
			h.Push(j, prios[j])
		}
		for h.Len() > 0 {
			h.PopMin()
		}
	}
}
