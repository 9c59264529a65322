package search

import (
	"context"
	"strings"
	"sync"
	"testing"

	"repro/internal/gridgen"
	"repro/internal/telemetry"
)

// testRecorder captures observations for assertions.
type testRecorder struct {
	mu     sync.Mutex
	runs   []Trace
	algos  []string
	pooled int
	fresh  int
}

func (r *testRecorder) ObserveSearch(algo string, seconds float64, tr Trace) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if seconds < 0 {
		panic("negative duration")
	}
	r.algos = append(r.algos, algo)
	r.runs = append(r.runs, tr)
}

func (r *testRecorder) ObserveWorkspace(pooled bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if pooled {
		r.pooled++
	} else {
		r.fresh++
	}
}

func TestRecorderObservesRuns(t *testing.T) {
	g := gridgen.MustGenerate(gridgen.Config{K: 8, Model: gridgen.Uniform, Seed: 1})
	s, d := gridgen.Pair(8, gridgen.Diagonal, 1)

	rec := &testRecorder{}
	SetRecorder(rec)
	defer SetRecorder(nil)

	if _, err := Dijkstra(g, s, d); err != nil {
		t.Fatal(err)
	}
	if _, err := IterativeCtx(context.Background(), g, s, d); err != nil {
		t.Fatal(err)
	}
	if _, err := BidirectionalCtx(context.Background(), g, s, d); err != nil {
		t.Fatal(err)
	}

	if got, want := rec.algos, []string{"dijkstra", "iterative", "bidirectional"}; len(got) != 3 ||
		got[0] != want[0] || got[1] != want[1] || got[2] != want[2] {
		t.Fatalf("observed algos %v, want %v", got, want)
	}
	for i, tr := range rec.runs {
		if tr.Expansions == 0 {
			t.Errorf("%s: zero expansions recorded", rec.algos[i])
		}
		if tr.HeapPushes == 0 || tr.HeapPops == 0 {
			t.Errorf("%s: heap ops not recorded: pushes=%d pops=%d", rec.algos[i], tr.HeapPushes, tr.HeapPops)
		}
		if tr.HeapPops > tr.HeapPushes {
			t.Errorf("%s: more pops than pushes: %d > %d", rec.algos[i], tr.HeapPops, tr.HeapPushes)
		}
	}
	if rec.pooled+rec.fresh != 3 {
		t.Errorf("workspace acquisitions = %d, want 3", rec.pooled+rec.fresh)
	}
}

// TestRecorderDisabledByDefault asserts the zero-cost contract's visible
// half: with no recorder installed nothing is observed, and SetRecorder(nil)
// turns an installed recorder back off.
func TestRecorderDisabledByDefault(t *testing.T) {
	g := gridgen.MustGenerate(gridgen.Config{K: 4, Model: gridgen.Uniform, Seed: 1})
	s, d := gridgen.Pair(4, gridgen.Diagonal, 1)

	rec := &testRecorder{}
	SetRecorder(rec)
	SetRecorder(nil)
	if _, err := Dijkstra(g, s, d); err != nil {
		t.Fatal(err)
	}
	if len(rec.runs) != 0 {
		t.Fatalf("disabled recorder still observed %d runs", len(rec.runs))
	}
}

// TestHeapOpsMatchAcrossFrontiers checks every frontier kind reports
// plausible, consistent heap work for the same query.
func TestHeapOpsMatchAcrossFrontiers(t *testing.T) {
	g := gridgen.MustGenerate(gridgen.Config{K: 10, Model: gridgen.Uniform, Seed: 7})
	s, d := gridgen.Pair(10, gridgen.Diagonal, 7)
	for _, kind := range []FrontierKind{FrontierHeap, FrontierScan, FrontierDuplicates} {
		res, err := BestFirstCtx(context.Background(), g, s, d, Options{Frontier: kind})
		if err != nil {
			t.Fatal(err)
		}
		tr := res.Trace
		if tr.HeapPushes == 0 {
			t.Errorf("%v: no pushes recorded", kind)
		}
		if tr.HeapPops > tr.HeapPushes {
			t.Errorf("%v: pops %d exceed pushes %d", kind, tr.HeapPops, tr.HeapPushes)
		}
	}
}

func TestRegistryRecorderExport(t *testing.T) {
	g := gridgen.MustGenerate(gridgen.Config{K: 8, Model: gridgen.Uniform, Seed: 1})
	s, d := gridgen.Pair(8, gridgen.Diagonal, 1)

	reg := telemetry.NewRegistry()
	EnableTelemetry(reg)
	defer SetRecorder(nil)

	for i := 0; i < 3; i++ {
		if _, err := Dijkstra(g, s, d); err != nil {
			t.Fatal(err)
		}
	}

	if got := reg.Counter("atis_search_runs_total", "", telemetry.L("algo", "dijkstra")).Value(); got != 3 {
		t.Fatalf("atis_search_runs_total{algo=dijkstra} = %d, want 3", got)
	}
	var b strings.Builder
	if err := reg.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		`atis_search_runs_total{algo="dijkstra"} 3`,
		`atis_search_expansions_total{algo="dijkstra"}`,
		`atis_search_heap_pushes_total{algo="dijkstra"}`,
		`atis_search_heap_pops_total{algo="dijkstra"}`,
		`atis_search_seconds_count{algo="dijkstra"} 3`,
		`atis_search_workspace_acquires_total`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("export missing %q\nexport:\n%s", want, out)
		}
	}
}
