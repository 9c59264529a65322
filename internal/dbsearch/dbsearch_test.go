package dbsearch

import (
	"context"
	"math"
	"testing"

	"repro/internal/estimator"
	"repro/internal/graph"
	"repro/internal/gridgen"
	"repro/internal/join"
	"repro/internal/search"
)

// openGrid loads a grid into a MapDB.
func openGrid(t *testing.T, k int, model gridgen.CostModel, seed int64) *MapDB {
	t.Helper()
	g := gridgen.MustGenerate(gridgen.Config{K: k, Model: model, Seed: seed})
	m, err := OpenMap(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestOpenMapLoadsRelations(t *testing.T) {
	m := openGrid(t, 5, gridgen.Uniform, 0)
	n, err := m.DB().Relation("n")
	if err != nil {
		t.Fatal(err)
	}
	if n.NumTuples() != 25 {
		t.Errorf("node master has %d tuples", n.NumTuples())
	}
	s, err := m.DB().Relation("s")
	if err != nil {
		t.Fatal(err)
	}
	if s.NumTuples() != m.Graph().NumEdges() {
		t.Errorf("edge relation has %d tuples, want %d", s.NumTuples(), m.Graph().NumEdges())
	}
	if _, err := m.DB().ISAM("n", "id"); err != nil {
		t.Error("node master not ISAM-indexed")
	}
	if _, err := m.DB().HashIndex("s", "begin"); err != nil {
		t.Error("edge relation not hash-indexed")
	}
}

// Every DB algorithm must agree with the in-memory oracle on cost.
func TestDBAlgorithmsMatchInMemory(t *testing.T) {
	const k = 8
	m := openGrid(t, k, gridgen.Variance, 42)
	g := m.Graph()

	pairs := []struct {
		name string
		kind gridgen.PairKind
	}{
		{"horizontal", gridgen.Horizontal},
		{"semi-diagonal", gridgen.SemiDiagonal},
		{"diagonal", gridgen.Diagonal},
	}
	for _, pair := range pairs {
		s, d := gridgen.Pair(k, pair.kind, 0)
		oracle, err := search.Dijkstra(g, s, d)
		if err != nil {
			t.Fatal(err)
		}

		runs := []struct {
			name string
			run  func() (Result, error)
		}{
			{"iterative", func() (Result, error) { return m.RunIterative(s, d, Config{Name: "iterative"}) }},
			{"dijkstra", func() (Result, error) { return m.RunBestFirst(s, d, DijkstraConfig()) }},
			{"astar-v1", func() (Result, error) { return m.RunBestFirst(s, d, AStarV1Config()) }},
			{"astar-v2", func() (Result, error) { return m.RunBestFirst(s, d, AStarV2Config()) }},
			{"astar-v3", func() (Result, error) { return m.RunBestFirst(s, d, AStarV3Config()) }},
		}
		for _, rn := range runs {
			res, err := rn.run()
			if err != nil {
				t.Fatalf("%s/%s: %v", pair.name, rn.name, err)
			}
			if !res.Found {
				t.Fatalf("%s/%s: no path", pair.name, rn.name)
			}
			// Euclidean underestimates on a ≥1-cost grid, manhattan is
			// admissible too (cost ≥ 1 per unit step): all must be optimal.
			if math.Abs(res.Cost-oracle.Cost) > 1e-9 {
				t.Errorf("%s/%s: cost %v, oracle %v", pair.name, rn.name, res.Cost, oracle.Cost)
			}
			if !res.Path.ValidIn(g) {
				t.Errorf("%s/%s: invalid path", pair.name, rn.name)
			}
			if c, err := res.Path.CostIn(g); err != nil || math.Abs(c-res.Cost) > 1e-9 {
				t.Errorf("%s/%s: path costs %v (%v), reported %v", pair.name, rn.name, c, err, res.Cost)
			}
			if res.PageRequests == 0 || res.TimeUnits <= 0 {
				t.Errorf("%s/%s: no I/O recorded (%d requests, %v units)", pair.name, rn.name, res.PageRequests, res.TimeUnits)
			}
			if len(res.Steps) == 0 {
				t.Errorf("%s/%s: no step trace", pair.name, rn.name)
			}
		}
	}
}

// DB iteration counts must match the in-memory engine's: same selection
// rule, same tie-breaks.
func TestDBIterationCountsMatchInMemory(t *testing.T) {
	const k = 10
	m := openGrid(t, k, gridgen.Variance, 1993)
	g := m.Graph()
	s, d := gridgen.Pair(k, gridgen.Diagonal, 0)

	dijMem, _ := search.Dijkstra(g, s, d)
	dijDB, err := m.RunBestFirst(s, d, DijkstraConfig())
	if err != nil {
		t.Fatal(err)
	}
	if dijDB.Iterations != dijMem.Trace.Iterations {
		t.Errorf("dijkstra: DB %d iterations, in-memory %d", dijDB.Iterations, dijMem.Trace.Iterations)
	}

	astMem, _ := search.AStarCtx(context.Background(), g, s, d, estimator.Manhattan())
	astDB, err := m.RunBestFirst(s, d, AStarV3Config())
	if err != nil {
		t.Fatal(err)
	}
	if astDB.Iterations != astMem.Trace.Iterations {
		t.Errorf("astar-v3: DB %d iterations, in-memory %d", astDB.Iterations, astMem.Trace.Iterations)
	}

	itMem, _ := search.IterativeCtx(context.Background(), g, s, d)
	itDB, err := m.RunIterative(s, d, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if itDB.Iterations != itMem.Trace.Iterations {
		t.Errorf("iterative: DB %d rounds, in-memory %d", itDB.Iterations, itMem.Trace.Iterations)
	}
}

func TestDBNoPath(t *testing.T) {
	// Two disconnected segments.
	b := graph.NewBuilder(4, 2)
	for i := 0; i < 4; i++ {
		b.AddNode(float64(i), 0)
	}
	b.AddEdge(0, 1, 1)
	b.AddEdge(2, 3, 1)
	g := b.MustBuild()
	m, err := OpenMap(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, cfg := range []Config{DijkstraConfig(), AStarV1Config(), AStarV2Config(), AStarV3Config()} {
		res, err := m.RunBestFirst(0, 3, cfg)
		if err != nil {
			t.Fatalf("%s: %v", cfg.Name, err)
		}
		if res.Found || !math.IsInf(res.Cost, 1) {
			t.Errorf("%s: found=%v cost=%v across components", cfg.Name, res.Found, res.Cost)
		}
	}
	res, err := m.RunIterative(0, 3, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Found {
		t.Error("iterative found a path across components")
	}
}

func TestDBSourceEqualsDest(t *testing.T) {
	m := openGrid(t, 4, gridgen.Uniform, 0)
	res, err := m.RunBestFirst(5, 5, DijkstraConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found || res.Cost != 0 || res.Path.Len() != 0 {
		t.Errorf("s==d: %+v", res)
	}
	res, err = m.RunIterative(5, 5, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found || res.Cost != 0 {
		t.Errorf("iterative s==d: cost %v", res.Cost)
	}
}

func TestDBInvalidEndpoints(t *testing.T) {
	m := openGrid(t, 4, gridgen.Uniform, 0)
	if _, err := m.RunBestFirst(-1, 3, DijkstraConfig()); err == nil {
		t.Error("negative source accepted")
	}
	if _, err := m.RunIterative(0, 99, Config{}); err == nil {
		t.Error("out-of-range destination accepted")
	}
}

// The paper's core claim, reproduced on the relational engine: for short
// paths the estimator-based algorithms do far less I/O than iterative; for
// the worst-case diagonal the iterative algorithm is competitive.
func TestDBEarlyTerminationIOContrast(t *testing.T) {
	const k = 12
	m := openGrid(t, k, gridgen.Variance, 7)
	// Short hop in the middle of the grid.
	s := gridgen.NodeAt(k, 6, 6)
	d := gridgen.NodeAt(k, 6, 7)
	ast, err := m.RunBestFirst(s, d, AStarV3Config())
	if err != nil {
		t.Fatal(err)
	}
	it, err := m.RunIterative(s, d, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if ast.TimeUnits*2 > it.TimeUnits {
		t.Errorf("short path: A* units %.1f not ≪ iterative %.1f", ast.TimeUnits, it.TimeUnits)
	}
	if ast.Iterations != 1 {
		t.Errorf("adjacent pair took %d expansions", ast.Iterations)
	}
}

// Version 1 (separate frontier relation, incremental R) beats version 2 on
// short paths (no init of the full R) and loses on long ones — Figure 12's
// crossover.
func TestV1VersusV2Crossover(t *testing.T) {
	const k = 12
	m := openGrid(t, k, gridgen.Uniform, 0)
	// Short path: v1 should win (no full-R initialization).
	s, d := gridgen.NodeAt(k, 0, 0), gridgen.NodeAt(k, 0, 2)
	v1, err := m.RunBestFirst(s, d, AStarV1Config())
	if err != nil {
		t.Fatal(err)
	}
	v2, err := m.RunBestFirst(s, d, AStarV2Config())
	if err != nil {
		t.Fatal(err)
	}
	if v1.TimeUnits >= v2.TimeUnits {
		t.Errorf("short path: v1 units %.1f not below v2 %.1f", v1.TimeUnits, v2.TimeUnits)
	}
	// Long diagonal: v1's frontier churn should cost more.
	s, d = gridgen.Pair(k, gridgen.Diagonal, 0)
	v1, err = m.RunBestFirst(s, d, AStarV1Config())
	if err != nil {
		t.Fatal(err)
	}
	v2, err = m.RunBestFirst(s, d, AStarV2Config())
	if err != nil {
		t.Fatal(err)
	}
	if v1.TimeUnits <= v2.TimeUnits {
		t.Errorf("diagonal: v1 units %.1f not above v2 %.1f", v1.TimeUnits, v2.TimeUnits)
	}
}

// Forcing each join strategy must not change the answer, only the I/O.
func TestForcedJoinStrategiesAgree(t *testing.T) {
	const k = 6
	m := openGrid(t, k, gridgen.Variance, 3)
	s, d := gridgen.Pair(k, gridgen.SemiDiagonal, 0)
	var baseline Result
	for i, strat := range join.Strategies() {
		st := strat
		cfg := DijkstraConfig()
		cfg.ForceJoin = &st
		res, err := m.RunBestFirst(s, d, cfg)
		if err != nil {
			t.Fatalf("%v: %v", strat, err)
		}
		if i == 0 {
			baseline = res
			continue
		}
		if math.Abs(res.Cost-baseline.Cost) > 1e-9 || res.Iterations != baseline.Iterations {
			t.Errorf("%v: cost %v / %d iters, baseline %v / %d",
				strat, res.Cost, res.Iterations, baseline.Cost, baseline.Iterations)
		}
	}
}

func TestReopensUnderInadmissibleEstimator(t *testing.T) {
	// Weighted manhattan is inadmissible; on a variance grid A* may reopen
	// closed nodes but must still return a valid (possibly suboptimal)
	// path no better than optimal.
	const k = 8
	m := openGrid(t, k, gridgen.Variance, 11)
	s, d := gridgen.Pair(k, gridgen.Diagonal, 0)
	opt, _ := search.Dijkstra(m.Graph(), s, d)
	cfg := AStarV3Config()
	cfg.Weight = 3
	res, err := m.RunBestFirst(s, d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found || !res.Path.ValidIn(m.Graph()) {
		t.Fatal("weighted A* failed to produce a valid path")
	}
	if res.Cost < opt.Cost-1e-9 {
		t.Errorf("cost %v below optimum %v", res.Cost, opt.Cost)
	}
	if res.Cost > 3*opt.Cost+1e-9 {
		t.Errorf("cost %v above weight bound %v", res.Cost, 3*opt.Cost)
	}
}

func TestStepTraceShape(t *testing.T) {
	m := openGrid(t, 6, gridgen.Uniform, 0)
	s, d := gridgen.Pair(6, gridgen.Diagonal, 0)
	res, err := m.RunBestFirst(s, d, DijkstraConfig())
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, st := range res.Steps {
		names[st.Name] = true
	}
	for _, want := range []string{"1-2 create+init R", "3 index R", "4 mark source", "5 select min (scan R)", "7 join adjacency", "8 relax neighbors", "9 close current", "10 build path"} {
		if !names[want] {
			t.Errorf("missing step %q in trace (have %v)", want, names)
		}
	}
	// Per-iteration steps must account for real I/O, and the selection
	// scans must cost at least one page request per iteration.
	var sel, total int64
	for _, st := range res.Steps {
		total += st.PageRequests
		if st.Name == "5 select min (scan R)" {
			sel = st.PageRequests
		}
	}
	if sel < int64(res.Iterations) {
		t.Errorf("selection scans %d page requests over %d iterations", sel, res.Iterations)
	}
	if total <= sel {
		t.Errorf("total page requests %d not above selection's %d", total, sel)
	}
}

func TestMultipleRunsShareOneMap(t *testing.T) {
	m := openGrid(t, 6, gridgen.Uniform, 0)
	s, d := gridgen.Pair(6, gridgen.Diagonal, 0)
	first, err := m.RunBestFirst(s, d, AStarV3Config())
	if err != nil {
		t.Fatal(err)
	}
	second, err := m.RunBestFirst(s, d, AStarV3Config())
	if err != nil {
		t.Fatal(err)
	}
	if first.Cost != second.Cost || first.Iterations != second.Iterations {
		t.Errorf("repeat run diverged: %v/%d vs %v/%d",
			first.Cost, first.Iterations, second.Cost, second.Iterations)
	}
}
