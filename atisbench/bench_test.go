package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/graph"
)

// tinyRun runs w shrunk to a k=8 grid and a few hundred operations, with
// the layer-by-layer replay, and fails the test on any failed operation.
func tinyRun(t *testing.T, w workload, seed int64) *report {
	t.Helper()
	o := options{seconds: 1, trace: true, setupsPerSlice: 1, spans: filepath.Join(t.TempDir(), "spans.jsonl"), log: io.Discard}
	rep, err := runWorkload(context.Background(), w.tiny(), seed, o)
	if err != nil {
		t.Fatalf("%s: %v", w.name, err)
	}
	if rep.failed != 0 || rep.attempted == 0 {
		t.Fatalf("%s: %d of %d operations failed: %v", w.name, rep.failed, rep.attempted, rep.firstErr)
	}
	return rep
}

func counts(ms []metric) map[string]float64 {
	out := make(map[string]float64)
	for _, m := range ms {
		if m.unit == "count" {
			out[m.name] = m.value
		}
	}
	return out
}

// TestTinyRunsRepeat runs every workload twice with one seed: no
// operation fails, and every count column repeats exactly.
func TestTinyRunsRepeat(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			a, b := tinyRun(t, w, 7), tinyRun(t, w, 7)
			ca, cb := counts(a.layers), counts(b.layers)
			if raceEnabled {
				delete(ca, "httpapi.allocs_per_op")
				delete(cb, "httpapi.allocs_per_op")
			}
			if len(ca) == 0 || !reflect.DeepEqual(ca, cb) {
				t.Errorf("count columns differ between runs with one seed:\n%v\n%v", ca, cb)
			}
		})
	}
}

// TestMetricsMatchBenchmarkJSON checks that a run reports exactly the
// metrics, with the units, that BENCHMARK.json declares.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	var declared []string
	for _, w := range spec.Workloads {
		declared = append(declared, w.Name)
	}
	if !reflect.DeepEqual(names, declared) {
		t.Errorf("workloads %v, BENCHMARK.json declares %v", names, declared)
	}
	rep := tinyRun(t, workloads[1], 3)
	same := func(kind string, got []metric, want []struct{ Name, Unit string }) {
		g, w := map[string]string{}, map[string]string{}
		for _, m := range got {
			g[m.name] = m.unit
		}
		for _, m := range want {
			w[m.Name] = m.Unit
		}
		if !reflect.DeepEqual(g, w) {
			t.Errorf("%s metrics %v, BENCHMARK.json declares %v", kind, g, w)
		}
	}
	same("end-to-end", rep.metrics, spec.EndToEnd)
	same("per-layer", rep.layers, spec.PerLayer)
}

// TestSeedDrivesStreams checks that one seed always gives the same
// requests and another seed different ones.
func TestSeedDrivesStreams(t *testing.T) {
	for _, w := range workloads {
		// The requests as the server would see them: ops only index the
		// generated pairs and changes.
		streams := func(seed int64) []string {
			in, err := makeInputs(w.tiny(), seed, 1)
			if err != nil {
				t.Fatal(err)
			}
			defer in.free()
			var out []string
			var buf []byte
			for _, ops := range [][]op{in.warm, in.open, in.closed, in.ticks, in.busy, in.quiet} {
				for i := range ops {
					method, path, body := in.request(&ops[i], &buf)
					out = append(out, method+" "+path+" "+string(body))
				}
			}
			return out
		}
		if !reflect.DeepEqual(streams(1), streams(1)) {
			t.Errorf("%s: seed 1 gave two different request streams", w.name)
		}
		if reflect.DeepEqual(streams(1), streams(2)) {
			t.Errorf("%s: seeds 1 and 2 gave the same request streams", w.name)
		}
	}
}

// TestOracleRejectsWrongAnswers feeds the oracle a suboptimal cost, a
// path that skips an arc, and a live answer no generation explains.
func TestOracleRejectsWrongAnswers(t *testing.T) {
	g, err := generateMap(workloads[1].tiny(), 1)
	if err != nil {
		t.Fatal(err)
	}
	// Node 0 → 2 along the grid's bottom row.
	c01, _ := g.ArcCost(0, 1)
	c12, _ := g.ArcCost(1, 2)
	good := answer{found: true, cost: c01 + c12, n: 3}
	nodes := []int32{0, 1, 2}
	mk := func(a answer, nodes []int32) ([]check, *bool) {
		failed := new(bool)
		return []check{{p: pair{0, 2}, a: a, nodes: nodes, failed: failed}}, failed
	}
	if checks, failed := mk(good, nodes); verifyStatic(g, checks) != nil || *failed {
		t.Fatalf("oracle rejected the optimal answer")
	}
	bad := good
	bad.cost *= 1.5
	if checks, failed := mk(bad, nodes); verifyStatic(g, checks) == nil || !*failed {
		t.Errorf("oracle accepted a cost that is not the path's")
	}
	if checks, failed := mk(good, []int32{0, 2}); verifyStatic(g, checks) == nil || !*failed {
		t.Errorf("oracle accepted a path with a missing arc")
	}
	// Live: the answer was computed before a batch that tripled the
	// costs, but its window admits only the later generation.
	tl := &timeline{
		batches: [][]graph.EdgeCostChange{{{Tail: 0, Head: 1, Cost: 3 * c01}, {Tail: 1, Head: 2, Cost: 3 * c12}}},
		sent:    []int64{10}, done: []int64{20},
	}
	checks, failed := mk(good, nodes)
	checks[0].lo, checks[0].hi = tl.window(30, 40)
	if verifyLive(g, tl, checks) == nil || !*failed {
		t.Errorf("oracle accepted an answer from a generation outside its window")
	}
	checks, failed = mk(good, nodes)
	checks[0].lo, checks[0].hi = tl.window(5, 15)
	if verifyLive(g, tl, checks) != nil || *failed {
		t.Errorf("oracle rejected an answer its window explains")
	}
}

// TestCommandLine checks the command's exit codes and its last line.
func TestCommandLine(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"--workload", "nope"}, &out, &errOut); code != 2 || out.Len() != 0 {
		t.Errorf("unknown workload: exit %d, stdout %q", code, out.String())
	}
	out.Reset()
	if code := run([]string{"--workload", "hot-commute", "--seconds", "0.5", "--trace", "0"}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res struct {
		Correct           bool
		Attempted, Failed int
		Metrics           map[string]struct {
			Value float64
			Unit  string
		}
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the JSON result: %v", err)
	}
	if !res.Correct || res.Attempted == 0 || res.Failed != 0 || len(res.Metrics) == 0 {
		t.Errorf("result %+v", res)
	}
}

// TestArena checks that arena slices hold what is written to them and
// that a type with pointers is refused.
func TestArena(t *testing.T) {
	a := &arena{}
	defer a.free()
	xs := arenaCopy(a, []pair{{1, 2}, {3, 4}})
	xs = append(xs, pair{5, 6})
	if !reflect.DeepEqual(xs, []pair{{1, 2}, {3, 4}, {5, 6}}) {
		t.Errorf("arena slice holds %v", xs)
	}
	defer func() {
		if recover() == nil {
			t.Errorf("arenaSlice accepted a type with pointers")
		}
	}()
	arenaSlice[check](a, 1)
}
