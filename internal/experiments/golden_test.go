package experiments

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/experiments.golden from the current output")

var (
	wallClock  = regexp.MustCompile(`[0-9]+\.[0-9]+ms`)
	spaceRun   = regexp.MustCompile(` {2,}`)
	iterCell   = regexp.MustCompile(`([0-9]+) \(paper [0-9]+\)`)
	specOnce   sync.Once
	specOutput string
	specErr    error
)

// specRun runs every experiment once, at the default seed (1993) and one
// repetition, framed the way `atis-experiments -run all` frames them. The
// golden and shape tests share the one run.
func specRun(t *testing.T) string {
	t.Helper()
	specOnce.Do(func() {
		var buf bytes.Buffer
		for _, e := range All() {
			fmt.Fprintf(&buf, "\n##### %s — %s\n", e.ID, e.Title)
			if err := e.Run(&buf, RunConfig{Reps: 1, Seed: 1993}); err != nil {
				specErr = fmt.Errorf("%s: %w", e.ID, err)
				return
			}
		}
		specOutput = buf.String()
	})
	if specErr != nil {
		t.Fatal(specErr)
	}
	return specOutput
}

// normalise masks the wall-clock cells, the only part of the output that
// varies between runs, and collapses runs of spaces, because tabwriter pads
// each column to its widest cell and so the padding follows the masked
// widths.
func normalise(s string) string {
	return spaceRun.ReplaceAllString(wallClock.ReplaceAllString(s, "<ms>"), " ")
}

// TestExperimentsGolden pins the paper reproduction: every table and
// figure must regenerate unchanged. Run with -update to bless a change
// that is meant to move a figure.
func TestExperimentsGolden(t *testing.T) {
	got := normalise(specRun(t))
	path := filepath.Join("testdata", "experiments.golden")
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Fatalf("experiments output differs from %s at line %d:\n got: %q\nwant: %q", path, i+1, g, w)
		}
	}
}

// iterationTable returns the measured iteration counts of the table whose
// title starts with prefix, by algorithm, one entry per column.
func iterationTable(t *testing.T, prefix string) map[string][]int {
	t.Helper()
	lines := strings.Split(specRun(t), "\n")
	for i, l := range lines {
		if !strings.HasPrefix(l, prefix) {
			continue
		}
		rows := map[string][]int{}
		// Title, underline, header, then one row per algorithm.
		for _, row := range lines[i+3 : i+3+len(algoOrder)] {
			name := strings.Fields(row)[0]
			for _, m := range iterCell.FindAllStringSubmatch(row, -1) {
				n, err := strconv.Atoi(m[1])
				if err != nil {
					t.Fatal(err)
				}
				rows[name] = append(rows[name], n)
			}
		}
		return rows
	}
	t.Fatalf("no table titled %q in the experiments output", prefix)
	return nil
}

// TestShapeTable5Iterations pins Table 5's closed forms on a k×k grid's
// corner-to-corner pair: Dijkstra settles every node but the destination
// (k²−1 iterations), and the iterative breadth-first algorithm takes one
// iteration per anti-diagonal (2k−1).
func TestShapeTable5Iterations(t *testing.T) {
	rows := iterationTable(t, "Table 5:")
	for i, k := range []int{10, 20, 30} {
		if got := rows["dijkstra"][i]; got != k*k-1 {
			t.Errorf("k=%d: dijkstra %d iterations, want k²−1 = %d", k, got, k*k-1)
		}
		if got := rows["iterative"][i]; got != 2*k-1 {
			t.Errorf("k=%d: iterative %d iterations, want 2k−1 = %d", k, got, 2*k-1)
		}
	}
}

// TestShapeAStarBeatsDijkstra pins the paper's central claim: the
// estimator-guided A* (version 3) takes fewer iterations than Dijkstra on
// every workload of Tables 5–7.
func TestShapeAStarBeatsDijkstra(t *testing.T) {
	for _, prefix := range []string{"Table 5:", "Table 6:", "Table 7:"} {
		rows := iterationTable(t, prefix)
		d, a := rows["dijkstra"], rows["astar-v3"]
		if len(d) != 3 || len(a) != 3 {
			t.Fatalf("%s parsed %d dijkstra and %d astar-v3 cells, want 3 each", prefix, len(d), len(a))
		}
		for i := range d {
			if a[i] >= d[i] {
				t.Errorf("%s column %d: astar-v3 %d iterations, not fewer than dijkstra %d", prefix, i+1, a[i], d[i])
			}
		}
	}
}
