// Package lint is the project-specific static-analysis framework behind
// cmd/atislint. It exists for the invariants no runtime test can carry.
// Lock scope is one: a field read without its mutex races only under an
// interleaving a test may never drive (the Prometheus exporter once
// iterated mutex-guarded maps after dropping the lock, a fatal race only
// visible under concurrent scrapes), so the lockscope analyzer checks
// every guarded field of the module. An invariant a runtime test already
// catches gets no analyzer: the hot paths' allocation freedom and pool
// pairing are carried by the AllocsPerRun gates that
// hotpath_gate_test.go registers for every //atis:hotpath function;
// kernel context polling by the countdown-context tests of search, ch
// and route; span lifecycle by httpapi's TestEverySpanEnded; and the
// immutability of published snapshots by httpapi's
// TestSnapshotDigestsUnchangedByReads.
//
// The framework is deliberately small and built only on the standard
// library (go/parser, go/ast, go/types): the main module stays
// dependency-free. An Analyzer inspects one type-checked package (a
// Unit) and reports Diagnostics. The loader in loader.go type-checks
// every package of the module, and ignore.go implements the
// `//lint:ignore <analyzer>[,<analyzer>...] <reason>` escape hatch.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Diagnostic is one finding: a position, the analyzer that produced it, and
// a message stating the violated invariant.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

// String renders the diagnostic in the file:line:col style editors parse.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Unit is one type-checked package: the parse trees, the type information,
// and the package object. Test files are excluded — the invariants guard
// production code paths, and tests routinely poke at internals without
// locks.
type Unit struct {
	Fset  *token.FileSet
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info
	// Dir is the package directory relative to the module root ("." for
	// the root package).
	Dir string
}

// Position resolves a token.Pos against the unit's file set.
func (u *Unit) Position(pos token.Pos) token.Position { return u.Fset.Position(pos) }

// Analyzer is one invariant checker, inspecting one type-checked package
// at a time.
type Analyzer interface {
	// Name is the identifier used on the command line and in
	// //lint:ignore directives.
	Name() string
	// Doc is a one-line description of the invariant the analyzer guards.
	Doc() string
	// Run inspects the unit and returns its findings. Suppression is the
	// driver's job; analyzers report everything they see.
	Run(u *Unit) []Diagnostic
}

// Analyzers returns the full suite in stable order.
func Analyzers() []Analyzer {
	return []Analyzer{NewLockScope()}
}

// Run applies every analyzer to the units, filters suppressed findings via
// the //lint:ignore directives in the units' files, and returns the
// remaining diagnostics sorted by position. Directives naming an analyzer
// outside the known suite produce their own "ignore" diagnostics: a typo in
// a suppression must not silently leave the finding live while looking
// handled.
func Run(units []*Unit, analyzers []Analyzer) []Diagnostic {
	known := make(map[string]bool)
	for _, a := range Analyzers() {
		known[a.Name()] = true
	}
	for _, a := range analyzers {
		known[a.Name()] = true
	}

	ignores := make(ignoreSet)
	for _, u := range units {
		collectIgnoresInto(ignores, u)
	}

	var out []Diagnostic
	for _, a := range analyzers {
		for _, u := range units {
			for _, d := range a.Run(u) {
				if !ignores.suppresses(d) {
					out = append(out, d)
				}
			}
		}
	}
	out = append(out, ignores.unknownWarnings(known)...)
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return out
}

// --- shared type helpers -------------------------------------------------

// mutexKind reports whether t is sync.Mutex or sync.RWMutex (possibly
// through a pointer); rw is true for RWMutex.
func mutexKind(t types.Type) (rw, ok bool) {
	if p, isPtr := t.Underlying().(*types.Pointer); isPtr {
		t = p.Elem()
	}
	named, isNamed := t.(*types.Named)
	if !isNamed {
		return false, false
	}
	obj := named.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != "sync" {
		return false, false
	}
	switch obj.Name() {
	case "Mutex":
		return false, true
	case "RWMutex":
		return true, true
	}
	return false, false
}

// rootIdent strips selector/index/star/paren chains down to the base
// identifier of an expression, or nil when the base is not an identifier
// (for example a call result).
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// objectOf resolves an identifier to its object, looking in both Uses and
// Defs.
func objectOf(info *types.Info, id *ast.Ident) types.Object {
	if o := info.Uses[id]; o != nil {
		return o
	}
	return info.Defs[id]
}
