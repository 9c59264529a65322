package route

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"reflect"
	"strings"
	"testing"

	"repro/internal/ch"
	"repro/internal/core"
)

// TestNoContextFreeTwins keeps one form per operation on the serving
// types and in the search package: a method or function X beside an
// XCtx means a context-free twin of a request-scoped operation came
// back. Keep the XCtx form and let callers without a request pass
// context.Background().
func TestNoContextFreeTwins(t *testing.T) {
	for _, typ := range []reflect.Type{
		reflect.TypeOf((*Service)(nil)),
		reflect.TypeOf((*core.Planner)(nil)),
		reflect.TypeOf((*ch.Index)(nil)),
	} {
		for i := 0; i < typ.NumMethod(); i++ {
			name := typ.Method(i).Name
			if _, twin := typ.MethodByName(name + "Ctx"); twin {
				t.Errorf("%v has both %s and %sCtx; keep only the context form", typ, name, name)
			}
		}
	}

	// The search kernels are package functions, which reflection cannot
	// enumerate, so walk the package's syntax: every exported function,
	// and every exported method under its receiver's type name.
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, "../search", func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	pkg, ok := pkgs["search"]
	if !ok {
		t.Fatal("package search not parsed")
	}
	exported := map[string]bool{}
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || !fd.Name.IsExported() {
				continue
			}
			exported[receiverName(fd)+fd.Name.Name] = true
		}
	}
	if len(exported) == 0 {
		t.Fatal("no exported functions found in package search")
	}
	for name := range exported {
		if exported[name+"Ctx"] {
			t.Errorf("search has both %s and %sCtx; keep only the context form", name, name)
		}
	}
}

// receiverName returns "T." for a method on T or *T, and "" for a
// function.
func receiverName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return ""
	}
	typ := fd.Recv.List[0].Type
	if star, ok := typ.(*ast.StarExpr); ok {
		typ = star.X
	}
	if id, ok := typ.(*ast.Ident); ok {
		return id.Name + "."
	}
	return ""
}
