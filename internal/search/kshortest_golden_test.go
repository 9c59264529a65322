package search

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/mpls"
)

var update = flag.Bool("update", false, "rewrite testdata/kshortest.golden from the current output")

// TestKShortestGolden pins Yen's alternates on the Table 8 routes of the
// synthetic Minneapolis map (seed 1993) at k=3 and k=16: every path's exact
// cost and node sequence. Any rewrite of the spur search must reproduce them
// bit for bit. Run with -update to bless a change meant to move them.
func TestKShortestGolden(t *testing.T) {
	g := mpls.MustGenerate(mpls.Config{Seed: 1993})
	var sb strings.Builder
	for _, k := range []int{3, 16} {
		for _, pp := range mpls.PaperPaths() {
			s, _ := g.Lookup(pp.From)
			d, _ := g.Lookup(pp.To)
			paths, _, err := KShortestCtx(context.Background(), g, s, d, k)
			if err != nil {
				t.Fatalf("%s k=%d: %v", pp.Name, k, err)
			}
			for i, p := range paths {
				fmt.Fprintf(&sb, "%s k=%d #%d cost=%s nodes=%s\n", pp.Name, k, i,
					strconv.FormatFloat(p.Cost, 'g', -1, 64), pathKey(p.Path))
			}
		}
	}
	got := sb.String()
	path := filepath.Join("testdata", "kshortest.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
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
			t.Fatalf("line %d differs:\n got: %s\nwant: %s", i+1, g, w)
		}
	}
}
