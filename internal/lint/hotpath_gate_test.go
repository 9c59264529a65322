package lint

import (
	"go/ast"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// hotpathGates maps every //atis:hotpath function in the module to the
// AllocsPerRun gate test that carries its contract: a warm run allocates
// nothing beyond the result it returns, on every branch the gate
// executes. The annotation means exactly "has a registered gate";
// annotating a new function without registering its gate here fails this
// test.
var hotpathGates = map[string]struct {
	dir  string // package directory relative to this one
	test string // Test function asserting AllocsPerRun == 0
}{
	"search.IterativeCtx":            {"../search", "TestHotpathKernelsZeroAlloc"},
	"search.BestFirstCtx":            {"../search", "TestHotpathKernelsZeroAlloc"},
	"search.BidirectionalCtx":        {"../search", "TestHotpathKernelsZeroAlloc"},
	"ch.Index.QueryCtx":              {"../ch", "TestQueryCtxUnreachableZeroAlloc"},
	"pqueue.Indexed.PushTie":         {"../pqueue", "TestIndexedHotOpsZeroAlloc"},
	"pqueue.Indexed.updateTie":       {"../pqueue", "TestIndexedHotOpsZeroAlloc"},
	"pqueue.Indexed.PushOrUpdateTie": {"../pqueue", "TestIndexedHotOpsZeroAlloc"},
	"pqueue.Indexed.Peek":            {"../pqueue", "TestIndexedHotOpsZeroAlloc"},
	"pqueue.Indexed.PopMin":          {"../pqueue", "TestIndexedHotOpsZeroAlloc"},
	"pqueue.Indexed.Reset":           {"../pqueue", "TestIndexedHotOpsZeroAlloc"},
	"admission.Gate.admitOrPark":     {"../admission", "TestGateFastPathsZeroAlloc"},
	"admission.Gate.release":         {"../admission", "TestGateFastPathsZeroAlloc"},
	"tracing.Start":                  {"../tracing", "TestDisabledZeroAlloc"},
	"tracing.FromContext":            {"../tracing", "TestDisabledZeroAlloc"},
	"tracing.Span.End":               {"../tracing", "TestDisabledZeroAlloc"},
	"tracing.Span.SetStr":            {"../tracing", "TestDisabledZeroAlloc"},
	"tracing.Span.SetInt":            {"../tracing", "TestDisabledZeroAlloc"},
	"tracing.Span.SetFloat":          {"../tracing", "TestDisabledZeroAlloc"},
	"tracing.Span.SetBool":           {"../tracing", "TestDisabledZeroAlloc"},
	"route.Service.Snapshot":         {"../route", "TestSnapshotReadPathZeroAlloc"},
	"route.Service.CostGeneration":   {"../route", "TestSnapshotReadPathZeroAlloc"},
	"route.Snapshot.Graph":           {"../route", "TestSnapshotReadPathZeroAlloc"},
	"route.Snapshot.CH":              {"../route", "TestSnapshotReadPathZeroAlloc"},
	"route.Snapshot.CostGeneration":  {"../route", "TestSnapshotReadPathZeroAlloc"},
	"route.Snapshot.Generation":      {"../route", "TestSnapshotReadPathZeroAlloc"},
	"route.Snapshot.GenerationText":  {"../route", "TestSnapshotReadPathZeroAlloc"},
}

// TestHotpathGateRegistry walks the module's //atis:hotpath annotations
// and checks each one against hotpathGates, then verifies the named gate
// tests actually exist in their packages' test files.
func TestHotpathGateRegistry(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module")
	}
	loader, err := NewLoader(filepath.Join("..", ".."))
	if err != nil {
		t.Fatalf("loading module: %v", err)
	}
	units, err := loader.LoadAll()
	if err != nil {
		t.Fatalf("type-checking module: %v", err)
	}

	annotated := make(map[string]bool)
	for _, u := range units {
		for _, f := range u.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || !hasHotpathDirective(fd.Doc) {
					continue
				}
				name := funcName(u.Pkg.Name(), fd)
				annotated[name] = true
				if _, ok := hotpathGates[name]; !ok {
					t.Errorf("//atis:hotpath function %s has no gate entry; add it to hotpathGates with an AllocsPerRun == 0 test", name)
				}
			}
		}
	}
	if len(annotated) == 0 {
		t.Fatal("no //atis:hotpath functions found in the module; the annotations were removed without updating this test")
	}
	for name, gate := range hotpathGates {
		if !annotated[name] {
			t.Errorf("hotpathGates entry %s does not match any //atis:hotpath function; stale entry?", name)
			continue
		}
		if !testFuncExists(t, gate.dir, gate.test) {
			t.Errorf("gate test %s for %s not found in %s", gate.test, name, gate.dir)
		}
	}
}

// hasHotpathDirective reports whether a doc comment carries
// //atis:hotpath as a line of its own, alone or followed by a note.
func hasHotpathDirective(doc *ast.CommentGroup) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		if c.Text == "//atis:hotpath" || strings.HasPrefix(c.Text, "//atis:hotpath ") {
			return true
		}
	}
	return false
}

// funcName renders a declared function as pkg.Func, or pkg.Type.Method
// for a method, whatever the receiver's pointer or type parameters.
func funcName(pkg string, fd *ast.FuncDecl) string {
	name := fd.Name.Name
	if fd.Recv != nil && len(fd.Recv.List) == 1 {
		t := fd.Recv.List[0].Type
		if star, ok := t.(*ast.StarExpr); ok {
			t = star.X
		}
		switch x := t.(type) {
		case *ast.IndexExpr:
			t = x.X
		case *ast.IndexListExpr:
			t = x.X
		}
		if id, ok := t.(*ast.Ident); ok {
			name = id.Name + "." + name
		}
	}
	return pkg + "." + name
}

// testFuncExists reports whether a top-level test function with the given
// name is declared in some _test.go file of dir.
func testFuncExists(t *testing.T, dir, name string) bool {
	t.Helper()
	pattern := regexp.MustCompile(`(?m)^func ` + regexp.QuoteMeta(name) + `\(`)
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("reading %s: %v", dir, err)
	}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), "_test.go") {
			continue
		}
		src, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatalf("reading %s: %v", e.Name(), err)
		}
		if pattern.Match(src) {
			return true
		}
	}
	return false
}
