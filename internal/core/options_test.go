package core

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/gridgen"
	"repro/internal/tracing"
)

func TestNewAppliesOptionsInOrder(t *testing.T) {
	const k = 8
	g := gridgen.MustGenerate(gridgen.Config{K: k, Model: gridgen.Variance, Seed: 1})

	tr := tracing.New(tracing.Config{SampleRate: 1, Capacity: 4})
	p, err := New(g, WithTracer(tr), WithCH())
	if err != nil {
		t.Fatal(err)
	}
	if p.tracer != tr {
		t.Error("WithTracer did not attach the tracer")
	}
	// WithCH prebuilds the index: the first CH route must be served
	// without another build (same pointer as the eager one).
	ix, err := p.CHIndex()
	if err != nil {
		t.Fatal(err)
	}
	if ix2 := p.chIdx.Load(); ix2 != ix {
		t.Error("CHIndex after WithCH rebuilt instead of reusing the eager index")
	}
	s, d := gridgen.Pair(k, gridgen.SemiDiagonal, 0)
	r, err := p.Route(s, d, Options{Algorithm: CH})
	if err != nil || !r.Found {
		t.Fatalf("CH route after WithCH: %v, found=%v", err, r.Found)
	}
}

func TestNewPropagatesOptionError(t *testing.T) {
	empty := graph.NewBuilder(0, 0).MustBuild()
	if _, err := New(empty, WithCH()); err == nil {
		t.Fatal("WithCH on an empty graph should fail New")
	}
}

func TestMustNewPanicsOnOptionError(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustNew did not panic on a failing option")
		}
	}()
	empty := graph.NewBuilder(0, 0).MustBuild()
	MustNew(empty, WithCH())
}
