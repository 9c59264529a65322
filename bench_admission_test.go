// Request-lifecycle benchmarks (`make bench-admission`, whose figures
// the benchmark history in CHANGES.md keeps): the cost of the amortized
// context polls threaded through every kernel, and the admission gate's
// fast paths.
//
// The ctx-overhead comparison runs each kernel under a background and a
// cancelable context back to back in one invocation. On this container's shared
// vCPU, wall-clock ns/op drifts 2-3x between runs but is stable within
// one, so the within-run ratio is the number that matters — along with
// allocs/op, which must be identical (the lifecycle is a stack value;
// polling allocates nothing).
//
// `make bench-admission` regenerates the numbers.
package repro_test

import (
	"context"
	"runtime"
	"testing"

	"repro/internal/admission"
	"repro/internal/graph"
	"repro/internal/gridgen"
	"repro/internal/search"
	"repro/internal/telemetry"
)

// BenchmarkCtxOverhead measures the acceptance criterion: each kernel
// polls an amortized counter every expansion and ctx.Err() every
// CheckInterval-th, which must cost <2% on the 100x100 diagonal. The
// base variant runs under context.Background(), whose Err is a constant
// nil; the ctx variant runs under a cancelable request context.
func BenchmarkCtxOverhead(b *testing.B) {
	g := gridgen.MustGenerate(gridgen.Config{K: 100, Model: gridgen.Variance, Seed: benchSeed})
	s, d := gridgen.Pair(100, gridgen.Diagonal, benchSeed)
	reqCtx, cancel := context.WithCancel(context.Background())
	defer cancel()
	kernels := []struct {
		name string
		run  func(context.Context, *graph.Graph, graph.NodeID, graph.NodeID) (search.Result, error)
	}{
		{"iterative", search.IterativeCtx},
		{"dijkstra", func(ctx context.Context, g *graph.Graph, s, d graph.NodeID) (search.Result, error) {
			return search.BestFirstCtx(ctx, g, s, d, search.Options{Label: "dijkstra"})
		}},
		{"bidirectional", search.BidirectionalCtx},
	}
	for _, k := range kernels {
		for _, v := range []struct {
			name string
			ctx  context.Context
		}{{"base", context.Background()}, {"ctx", reqCtx}} {
			b.Run(k.name+"/"+v.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := k.run(v.ctx, g, s, d); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkAdmissionAcquire measures the gate's uncontended fast path —
// the overhead every admitted request pays: one mutex round trip in,
// one out.
func BenchmarkAdmissionAcquire(b *testing.B) {
	gate := admission.NewGate(admission.Config{MaxInFlight: 4}, telemetry.NewRegistry())
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		release, err := gate.Acquire(ctx, 1)
		if err != nil {
			b.Fatal(err)
		}
		release()
	}
}

// BenchmarkAdmissionShed measures the saturated path: capacity held,
// queue full, every Acquire rejected immediately. Shedding must stay
// cheap — its whole point is answering faster than serving would.
func BenchmarkAdmissionShed(b *testing.B) {
	gate := admission.NewGate(admission.Config{MaxInFlight: 1, MaxQueue: 1}, telemetry.NewRegistry())
	ctx := context.Background()
	release, err := gate.Acquire(ctx, 1)
	if err != nil {
		b.Fatal(err)
	}
	defer release()
	parked, cancelParked := context.WithCancel(context.Background())
	defer cancelParked()
	go func() {
		if rel, err := gate.Acquire(parked, 1); err == nil {
			rel()
		}
	}()
	for gate.Stats().QueueDepth != 1 {
		runtime.Gosched()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := gate.Acquire(ctx, 1); err != admission.ErrShed {
			b.Fatalf("expected shed, got %v", err)
		}
	}
}
