package lint

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden files from current analyzer output")

// runFixture loads the fixture module under testdata/<name>/src and runs
// the single analyzer over it, returning the rendered findings with
// file paths reduced to basenames.
func runFixture(t *testing.T, name string, a Analyzer) []string {
	t.Helper()
	loader, err := NewLoader(filepath.Join("testdata", name, "src"))
	if err != nil {
		t.Fatalf("loading fixture: %v", err)
	}
	units, err := loader.LoadAll()
	if err != nil {
		t.Fatalf("type-checking fixture: %v", err)
	}
	if len(units) == 0 {
		t.Fatal("fixture loaded zero packages")
	}
	var lines []string
	for _, d := range Run(units, []Analyzer{a}) {
		lines = append(lines, fmt.Sprintf("%s:%d:%d: %s: %s",
			filepath.Base(d.Pos.Filename), d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message))
	}
	return lines
}

// TestAnalyzerGolden compares each analyzer's findings on its fixture —
// which reproduces the analyzer's motivating bug class, including the
// PR 2 exporter race for lockscope — against the checked-in golden file.
// Run with -update to regenerate the goldens after changing an analyzer.
func TestAnalyzerGolden(t *testing.T) {
	for _, a := range Analyzers() {
		a := a
		t.Run(a.Name(), func(t *testing.T) {
			got := strings.Join(runFixture(t, a.Name(), a), "\n") + "\n"
			goldenPath := filepath.Join("testdata", a.Name()+".golden")
			if *update {
				if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
					t.Fatalf("writing golden: %v", err)
				}
				return
			}
			want, err := os.ReadFile(goldenPath)
			if err != nil {
				t.Fatalf("reading golden (run `go test ./internal/lint -update` to create): %v", err)
			}
			if got != string(want) {
				t.Errorf("findings diverge from %s\n--- got ---\n%s--- want ---\n%s", goldenPath, got, want)
			}
		})
	}
}

// TestAnalyzersFire guards against an analyzer silently matching nothing:
// every fixture must produce at least one finding, and every fixture
// carries at least one suppressed violation proving the //lint:ignore
// escape hatch filters findings (the goldens must not contain the word
// "blessed", the marker naming suppressed functions).
func TestAnalyzersFire(t *testing.T) {
	for _, a := range Analyzers() {
		lines := runFixture(t, a.Name(), a)
		if len(lines) == 0 {
			t.Errorf("%s: fixture produced no findings; the analyzer is inert", a.Name())
		}
		src, err := os.ReadFile(filepath.Join("testdata", a.Name(), "src", "fixture.go"))
		if err != nil {
			t.Fatalf("reading fixture: %v", err)
		}
		if !strings.Contains(string(src), "//lint:ignore "+a.Name()+" ") {
			t.Errorf("%s: fixture has no //lint:ignore directive to exercise suppression", a.Name())
		}
	}
}

// TestRepoClean runs the full suite over this repository: the tree must
// stay lint-clean (the same gate as `make lint`). Each of the seven
// analyzers runs as its own subtest so a regression names the invariant
// it broke, not just "lint failed". Skipped with -short — type-checking
// the module plus its stdlib imports takes a few seconds.
func TestRepoClean(t *testing.T) {
	if testing.Short() {
		t.Skip("full-module type check; skipped in -short mode")
	}
	loader, err := NewLoader(filepath.Join("..", ".."))
	if err != nil {
		t.Fatalf("loading module: %v", err)
	}
	units, err := loader.LoadAll()
	if err != nil {
		t.Fatalf("type-checking module: %v", err)
	}
	if len(units) < 20 {
		t.Fatalf("loaded only %d packages; the loader is missing most of the module", len(units))
	}
	analyzers := Analyzers()
	if len(analyzers) != 7 {
		t.Fatalf("Analyzers() returned %d analyzers, want 7; update this test with the new invariant", len(analyzers))
	}
	for _, a := range analyzers {
		a := a
		t.Run(a.Name(), func(t *testing.T) {
			for _, d := range Run(units, []Analyzer{a}) {
				t.Errorf("%s", d)
			}
		})
	}
}

// TestIgnoreRequiresReason verifies a reason-less directive is inert.
func TestIgnoreRequiresReason(t *testing.T) {
	dir := t.TempDir()
	writeFile(t, filepath.Join(dir, "go.mod"), "module fixture\n\ngo 1.22\n")
	writeFile(t, filepath.Join(dir, "fixture.go"), `package fixture

import "sync"

type s struct {
	mu sync.Mutex
	m  map[int]int
}

func (x *s) bad() int {
	//lint:ignore lockscope
	return len(x.m)
}
`)
	loader, err := NewLoader(dir)
	if err != nil {
		t.Fatal(err)
	}
	units, err := loader.LoadAll()
	if err != nil {
		t.Fatal(err)
	}
	diags := Run(units, []Analyzer{NewLockScope()})
	if len(diags) != 1 {
		t.Fatalf("want 1 finding despite the reason-less ignore, got %d: %v", len(diags), diags)
	}
}

// TestIgnoreMultipleAnalyzers verifies the comma-separated directive
// form: one //lint:ignore line naming two analyzers suppresses both
// analyzers' findings on the next line.
func TestIgnoreMultipleAnalyzers(t *testing.T) {
	const body = `package fixture

import "sync"

type s struct {
	mu sync.Mutex
	m  map[int]int
}

//atis:hotpath
func (x *s) seed() {
	%sx.m[0] = len(x.m)
}
`
	load := func(t *testing.T, directive string) []Diagnostic {
		dir := t.TempDir()
		writeFile(t, filepath.Join(dir, "go.mod"), "module fixture\n\ngo 1.22\n")
		writeFile(t, filepath.Join(dir, "fixture.go"), fmt.Sprintf(body, directive))
		loader, err := NewLoader(dir)
		if err != nil {
			t.Fatal(err)
		}
		units, err := loader.LoadAll()
		if err != nil {
			t.Fatal(err)
		}
		return Run(units, []Analyzer{NewLockScope(), NewHotPath()})
	}

	// Without the directive both analyzers fire on the same line.
	bare := load(t, "")
	var analyzers []string
	for _, d := range bare {
		analyzers = append(analyzers, d.Analyzer)
	}
	if len(bare) < 2 || !strings.Contains(strings.Join(analyzers, " "), "lockscope") ||
		!strings.Contains(strings.Join(analyzers, " "), "hotpath") {
		t.Fatalf("baseline fixture must trip both analyzers, got %v", bare)
	}

	// One comma-list directive silences both.
	suppressed := load(t, "//lint:ignore lockscope,hotpath startup-time seeding, single-threaded and cold\n\t")
	if len(suppressed) != 0 {
		t.Errorf("comma-list ignore left %d finding(s): %v", len(suppressed), suppressed)
	}

	// Naming only one analyzer leaves the other's finding standing.
	partial := load(t, "//lint:ignore lockscope startup-time seeding, single-threaded\n\t")
	if len(partial) == 0 {
		t.Error("single-name ignore must not suppress the other analyzer's finding")
	}
	for _, d := range partial {
		if d.Analyzer == "lockscope" {
			t.Errorf("lockscope finding survived its own ignore: %v", d)
		}
	}
}

// TestIgnoreUnknownAnalyzerWarns verifies a typo'd analyzer name in a
// directive produces a warning diagnostic instead of silently suppressing
// nothing.
func TestIgnoreUnknownAnalyzerWarns(t *testing.T) {
	dir := t.TempDir()
	writeFile(t, filepath.Join(dir, "go.mod"), "module fixture\n\ngo 1.22\n")
	writeFile(t, filepath.Join(dir, "fixture.go"), `package fixture

import "sync"

type s struct {
	mu sync.Mutex
	m  map[int]int
}

func (x *s) bad() int {
	//lint:ignore lockscpoe typo: the analyzer is called lockscope
	return len(x.m)
}
`)
	loader, err := NewLoader(dir)
	if err != nil {
		t.Fatal(err)
	}
	units, err := loader.LoadAll()
	if err != nil {
		t.Fatal(err)
	}
	diags := Run(units, []Analyzer{NewLockScope()})
	var lockscope, warnings int
	for _, d := range diags {
		switch d.Analyzer {
		case "lockscope":
			lockscope++
		case "ignore":
			warnings++
			if !strings.Contains(d.Message, `unknown analyzer "lockscpoe"`) {
				t.Errorf("warning does not name the bad analyzer: %s", d.Message)
			}
		}
	}
	if lockscope != 1 {
		t.Errorf("typo'd directive must not suppress the finding; lockscope findings = %d", lockscope)
	}
	if warnings != 1 {
		t.Errorf("want exactly one unknown-analyzer warning, got %d: %v", warnings, diags)
	}
}

// BenchmarkLintModule times the full seven-analyzer run over the loaded
// module (type-checking excluded), the `make bench-lint` figure that keeps
// the interprocedural pass honest as the call graph grows.
func BenchmarkLintModule(b *testing.B) {
	loader, err := NewLoader(filepath.Join("..", ".."))
	if err != nil {
		b.Fatalf("loading module: %v", err)
	}
	units, err := loader.LoadAll()
	if err != nil {
		b.Fatalf("type-checking module: %v", err)
	}
	analyzers := Analyzers()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if diags := Run(units, analyzers); len(diags) != 0 {
			b.Fatalf("module not lint-clean: %v", diags)
		}
	}
}

func writeFile(t *testing.T, path, content string) {
	t.Helper()
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}
