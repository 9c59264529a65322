package route

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

// queryPathFuncs are the Service methods of the read path. The golden
// check below parses this package's sources and fails if any of them —
// or the Service struct itself — regresses to lock-based serving, and if
// an entry names no method, so a deleted or renamed method cannot leave
// the check silently skipping it.
var queryPathFuncs = map[string]bool{
	"Snapshot": true, "CostGeneration": true, "CacheStats": true,
	"Graph": true, "ComputeCtx": true, "ComputeIn": true,
	"cacheLookup": true, "routeSnap": true, "chQuery": true,
	"ComputeDegraded": true, "CHStats": true, "ComputeByName": true,
	"ComputeBatchCtx": true, "ComputeBatchIn": true, "Evaluate": true, "EvaluateIn": true,
	"Display": true, "AlternatesCtx": true, "ReachableCtx": true, "Directions": true,
}

// TestQueryPathAcquiresNoServiceLock is the ISSUE's lockscope/golden
// acceptance check: no query-path function may acquire the Service's
// writer lock (or any reader lock — the type must not even have one).
// The read path's only synchronization is the atomic snapshot load.
func TestQueryPathAcquiresNoServiceLock(t *testing.T) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, ".", nil, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	pkg, ok := pkgs["route"]
	if !ok {
		t.Fatal("package route not parsed")
	}

	seen := make(map[string]bool)
	for fname, f := range pkg.Files {
		if strings.HasSuffix(fname, "_test.go") {
			continue
		}
		// (a) Service must not carry a sync.RWMutex — readers have nothing
		// to share-lock, so a slow writer cannot convoy them.
		ast.Inspect(f, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok || ts.Name.Name != "Service" {
				return true
			}
			st, ok := ts.Type.(*ast.StructType)
			if !ok {
				return true
			}
			for _, field := range st.Fields.List {
				if sel, ok := field.Type.(*ast.SelectorExpr); ok {
					if id, ok := sel.X.(*ast.Ident); ok && id.Name == "sync" && sel.Sel.Name == "RWMutex" {
						t.Errorf("%s: Service regained a sync.RWMutex field (%v); serve from the published snapshot instead",
							fname, field.Names)
					}
				}
			}
			return false
		})

		// (b) No query-path method may mention the writer lock or any
		// RLock/RUnlock call.
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Recv == nil || fd.Body == nil || !queryPathFuncs[fd.Name.Name] {
				continue
			}
			seen[fd.Name.Name] = true
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				sel, ok := n.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				switch sel.Sel.Name {
				case "writeMu":
					t.Errorf("%s: query-path %s touches writeMu; the read path must be lock-free",
						fname, fd.Name.Name)
				case "RLock", "RUnlock", "Lock", "Unlock":
					// The route cache's shard locks are inside cache.go's own
					// methods, not visible here; any direct lock call in a
					// query-path body is a regression.
					t.Errorf("%s: query-path %s calls %s; the read path must be lock-free",
						fname, fd.Name.Name, sel.Sel.Name)
				}
				return true
			})
		}
	}
	for name := range queryPathFuncs {
		if !seen[name] {
			t.Errorf("queryPathFuncs entry %s does not match any method in this package; stale entry?", name)
		}
	}
}
