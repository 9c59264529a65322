package pqueue

import (
	"math"
	"testing"
)

// fuzzModel is the reference implementation FuzzIndexed checks the heap
// against: a plain map from item to (priority, tie), with minimum
// selection by linear scan under the heap's (priority, tie, item)
// ordering.
type fuzzModel map[int][2]float64

// min returns the item the heap must pop next, or ok=false when empty.
func (m fuzzModel) min() (item int, prio float64, ok bool) {
	best := -1
	var bp, bt float64
	for it, pt := range m {
		p, t := pt[0], pt[1]
		if best < 0 || p < bp || (p == bp && (t < bt || (t == bt && it < best))) {
			best, bp, bt = it, p, t
		}
	}
	if best < 0 {
		return 0, 0, false
	}
	return best, bp, true
}

// FuzzIndexed drives an Indexed heap with an arbitrary operation sequence
// — push, update, pop, peek, reset, grow — decoded from the fuzz input,
// and asserts the heap invariant: every PopMin must return exactly the
// item the reference model says is minimal under the deterministic
// (priority, tie, item) order, Len, Contains and each queued priority
// must agree with the model throughout, and draining at the end must
// empty both in lockstep. The search kernels' correctness (and their
// telemetry's heap-op accounting) sits on exactly these properties.
func FuzzIndexed(f *testing.F) {
	f.Add([]byte{8, 0, 1, 10, 0, 2, 20, 1, 1})
	f.Add([]byte{4, 0, 0, 5, 0, 1, 5, 0, 2, 5, 1, 1, 1})
	f.Add([]byte{16, 0, 3, 200, 2, 3, 3, 4, 5})
	f.Add([]byte{2, 0, 0, 9, 5, 40, 0, 1, 9, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		capacity := int(data[0])%64 + 1
		h := NewIndexed(capacity)
		model := make(fuzzModel)

		check := func(op string) {
			if h.Len() != len(model) {
				t.Fatalf("%s: Len=%d, model=%d", op, h.Len(), len(model))
			}
			for it, pt := range model {
				if !h.Contains(it) {
					t.Fatalf("%s: model holds %d but Contains is false", op, it)
				}
				if p := h.prio[h.pos[it]]; p != pt[0] {
					t.Fatalf("%s: priority of %d is %v, model %v", op, it, p, pt[0])
				}
			}
		}

		i := 1
		nextByte := func() (byte, bool) {
			if i >= len(data) {
				return 0, false
			}
			b := data[i]
			i++
			return b, true
		}
		for {
			opByte, ok := nextByte()
			if !ok {
				break
			}
			switch opByte % 4 {
			case 0: // PushOrUpdateTie(item, prio, tie)
				ib, ok1 := nextByte()
				pb, ok2 := nextByte()
				tb, ok3 := nextByte()
				if !ok1 || !ok2 || !ok3 {
					break
				}
				item := int(ib) % capacity
				prio := float64(pb) / 4
				tie := float64(int8(tb))
				h.PushOrUpdateTie(item, prio, tie)
				model[item] = [2]float64{prio, tie}
				check("push")
			case 1: // PopMin
				wantItem, wantPrio, wantOK := model.min()
				item, prio, ok := h.PopMin()
				if ok != wantOK {
					t.Fatalf("PopMin ok=%v, model ok=%v", ok, wantOK)
				}
				if ok {
					if item != wantItem || prio != wantPrio {
						t.Fatalf("PopMin=(%d,%v), model=(%d,%v)", item, prio, wantItem, wantPrio)
					}
					delete(model, item)
				}
				check("pop")
			case 2: // Peek must agree with the model's minimum
				wantItem, wantPrio, wantOK := model.min()
				item, prio, ok := h.Peek()
				if ok != wantOK || (ok && (item != wantItem || prio != wantPrio)) {
					t.Fatalf("Peek=(%d,%v,%v), model=(%d,%v,%v)", item, prio, ok, wantItem, wantPrio, wantOK)
				}
			case 3: // Grow (occasionally) or Reset (rarely)
				b, ok := nextByte()
				if !ok {
					break
				}
				if b%8 == 0 {
					h.Reset()
					model = make(fuzzModel)
				} else {
					capacity += int(b % 8)
					h.Grow(capacity)
				}
				check("grow/reset")
			}
		}

		// Drain: the remaining items must come out in exact model order,
		// and OpStats pops must tick in lockstep.
		for len(model) > 0 {
			wantItem, wantPrio, _ := model.min()
			item, prio, ok := h.PopMin()
			if !ok {
				t.Fatalf("drain: heap empty with %d items left in model", len(model))
			}
			if item != wantItem || prio != wantPrio || math.IsNaN(prio) {
				t.Fatalf("drain: PopMin=(%d,%v), model=(%d,%v)", item, prio, wantItem, wantPrio)
			}
			delete(model, item)
		}
		if _, _, ok := h.PopMin(); ok {
			t.Fatal("drain: heap still non-empty after model emptied")
		}
	})
}
