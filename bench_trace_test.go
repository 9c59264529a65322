// Tracing-overhead benchmarks: the zero-cost-when-disabled contract for
// the span layer, measured on the instrumented kernels. With no trace in
// the context every tracing.Start returns a nil span, every setter and
// End is a nil-check, and the kernel runs exactly as before — target
// under 1% and zero extra allocations versus the pre-tracing baseline
// (compare the `make bench` and `make bench-ch` rows of the benchmark
// history in CHANGES.md). The enabled runs price what a sampled request
// actually pays: span allocation, child linking, and capture into the
// ring. `make bench-trace` records both; see its row of the same table.
package repro_test

import (
	"context"
	"testing"

	"repro/internal/ch"
	"repro/internal/core"
	"repro/internal/gridgen"
	"repro/internal/tracing"
)

// BenchmarkTraceOverhead runs the same warm Dijkstra and CH query
// workloads with tracing disabled (no trace in the context, the
// production default) and enabled (every request sampled and captured —
// the worst case). Dijkstra runs through the Planner's "kernel" span; CH
// queries a prebuilt index directly, under its ch.search and ch.unpack
// spans.
func BenchmarkTraceOverhead(b *testing.B) {
	const k = 30
	g := gridgen.MustGenerate(gridgen.Config{K: k, Model: gridgen.Variance, Seed: benchSeed})
	s, d := gridgen.Pair(k, gridgen.Diagonal, benchSeed)
	p := core.New(g)
	ix, err := ch.Build(g, ch.Options{}) // build once, outside timing
	if err != nil {
		b.Fatal(err)
	}

	kernels := []struct {
		name string
		run  func(ctx context.Context) error
	}{
		{"dijkstra", func(ctx context.Context) error {
			_, err := p.RouteCtx(ctx, s, d, core.Options{Algorithm: core.Dijkstra})
			return err
		}},
		{"ch", func(ctx context.Context) error {
			_, err := ix.QueryCtx(ctx, s, d)
			return err
		}},
	}
	for _, kn := range kernels {
		b.Run(kn.name+"/disabled", func(b *testing.B) {
			ctx := context.Background()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := kn.run(ctx); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(kn.name+"/enabled", func(b *testing.B) {
			tracer := tracing.New(tracing.Config{SampleRate: 1})
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ctx, tr := tracer.StartRequest(context.Background(), "bench", "")
				if err := kn.run(ctx); err != nil {
					b.Fatal(err)
				}
				tracer.Finish(tr)
			}
		})
	}
}

// BenchmarkTraceRingCapture isolates the capture tail: building a
// three-span trace and committing it to the lock-striped ring, which is
// the fixed per-sampled-request cost independent of kernel work.
func BenchmarkTraceRingCapture(b *testing.B) {
	tracer := tracing.New(tracing.Config{SampleRate: 1})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ctx, tr := tracer.StartRequest(context.Background(), "bench", "")
		_, sp := tracing.Start(ctx, "kernel")
		sp.SetInt("iterations", int64(i))
		sp.End()
		tracer.Finish(tr)
	}
}
