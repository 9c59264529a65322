package admission

import (
	"testing"

	"repro/internal/telemetry"
)

// TestGateFastPathsZeroAlloc is the gate test behind the //atis:hotpath
// annotations on admitOrPark and release: the immediate-grant, shed, and
// release decisions allocate nothing, and neither does a release that
// hands freed capacity to parked waiters. Only a request that must park
// pays for its waiter, outside these measurements.
func TestGateFastPathsZeroAlloc(t *testing.T) {
	g := NewGate(Config{MaxInFlight: 1, MaxQueue: 1}, telemetry.NewRegistry())

	t.Run("grant and release", func(t *testing.T) {
		allocs := testing.AllocsPerRun(1000, func() {
			admitted, _, err := g.admitOrPark(1)
			if !admitted || err != nil {
				t.Errorf("want immediate grant, got admitted=%v err=%v", admitted, err)
			}
			g.release(1)
		})
		if allocs != 0 {
			t.Fatalf("grant/release cycle allocates %.1f times per op, want 0", allocs)
		}
	})

	t.Run("shed", func(t *testing.T) {
		// Saturate the semaphore and fill the one-deep queue so every
		// further arrival takes the shed branch.
		admitted, _, err := g.admitOrPark(1)
		if !admitted || err != nil {
			t.Fatalf("want immediate grant, got admitted=%v err=%v", admitted, err)
		}
		if _, w, err := g.admitOrPark(1); err != nil || w == nil {
			t.Fatalf("want parked waiter, got w=%v err=%v", w, err)
		}
		allocs := testing.AllocsPerRun(1000, func() {
			if _, _, err := g.admitOrPark(1); err != ErrShed {
				t.Errorf("want ErrShed, got %v", err)
			}
		})
		if allocs != 0 {
			t.Fatalf("shed decision allocates %.1f times per op, want 0", allocs)
		}
	})

	t.Run("hand-off", func(t *testing.T) {
		g := NewGate(Config{MaxInFlight: 2, MaxQueue: 4}, telemetry.NewRegistry())
		gone := &waiter{weight: 1, ready: make(chan struct{}, 1), abandoned: true}
		light := &waiter{weight: 1, ready: make(chan struct{}, 1)}
		heavy := &waiter{weight: 2, ready: make(chan struct{}, 1)}
		queue := make([]*waiter, 0, 3)
		allocs := testing.AllocsPerRun(1000, func() {
			if admitted, _, err := g.admitOrPark(2); !admitted || err != nil {
				t.Fatalf("want immediate grant, got admitted=%v err=%v", admitted, err)
			}
			// Park by hand in a reused queue, so the only work measured
			// is release's: skip the abandoned waiter, hand the freed
			// unit to light, and stop at heavy, which does not fit yet.
			g.queue = append(queue[:0], gone, light, heavy)
			g.release(2)
			<-light.ready
			if len(g.queue) != 1 {
				t.Fatalf("after the first release %d waiters remain, want heavy alone", len(g.queue))
			}
			g.release(1) // light finishes: heavy now fits
			<-heavy.ready
			g.release(2)
		})
		if allocs != 0 {
			t.Fatalf("hand-off to parked waiters allocates %.1f times per op, want 0", allocs)
		}
		if st := g.Stats(); st.InFlight != 0 || st.QueueDepth != 0 {
			t.Fatalf("gate not drained: %+v", st)
		}
	})
}
