package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// This file is the whole-program layer of the framework. Per-unit analyzers
// (UnitAnalyzer) see one type-checked package at a time; interprocedural
// analyzers (ProgramAnalyzer) see a Program: every module package loaded
// together, plus a static call graph over them. The graph is a deliberate
// under-approximation — see CallKind — chosen so that "everything reachable
// through static edges" is a set the analyzers can reason about soundly
// without whole-program pointer analysis.

// Annotation directives recognised on declarations. Like //go: directives
// they attach to the doc comment with no space after the slashes.
const (
	// hotpathDirective marks a function whose warm path is allocation-free
	// and pinned by a registered AllocsPerRun gate (hotpath_gate_test.go).
	hotpathDirective = "//atis:hotpath"
	// immutableDirective marks a type whose values must not be written
	// outside their build phase.
	immutableDirective = "//atis:immutable"
)

// CallKind classifies how a call site was resolved.
type CallKind int

const (
	// CallStatic is a direct call to a known function or a method call
	// through a concrete receiver type: the callee is exact.
	CallStatic CallKind = iota
	// CallInterface is a method call through an interface value. The
	// concrete callee is unknowable without pointer analysis, so the graph
	// records the site but adds no edge: interface boundaries stop
	// propagation.
	CallInterface
	// CallFuncValue is a call through a function-typed variable, field, or
	// parameter. Treated like CallInterface: recorded, no edge.
	CallFuncValue
)

// String renders the kind for goldens and diagnostics.
func (k CallKind) String() string {
	switch k {
	case CallStatic:
		return "static"
	case CallInterface:
		return "interface"
	case CallFuncValue:
		return "func-value"
	}
	return "unknown"
}

// CallSite is one call expression inside a module function, with its
// resolution. Calls inside nested function literals are attributed to the
// enclosing declared function: the literal runs on that function's paths.
type CallSite struct {
	Call   *ast.CallExpr
	Caller *FuncInfo
	// Callee is the exact target for CallStatic, the interface method
	// object for CallInterface, and nil for CallFuncValue.
	Callee *types.Func
	Kind   CallKind
}

// FuncInfo is one declared function of the module with a body.
type FuncInfo struct {
	Obj   *types.Func
	Decl  *ast.FuncDecl
	Unit  *Unit
	Calls []CallSite
	// Hotpath records a //atis:hotpath directive on the declaration.
	Hotpath bool
}

// Program is the whole-module view: every unit, every declared function,
// and the static call graph between them.
type Program struct {
	Units []*Unit

	funcs map[*types.Func]*FuncInfo
	// order lists the functions in load order (units, then files, then
	// declarations) so analyzers emit deterministic output.
	order   []*FuncInfo
	callers map[*types.Func][]*FuncInfo
	// immutable holds the type names annotated //atis:immutable.
	immutable map[*types.TypeName]bool
}

// NewProgram indexes the units and builds the call graph.
func NewProgram(units []*Unit) *Program {
	p := &Program{
		Units:     units,
		funcs:     make(map[*types.Func]*FuncInfo),
		callers:   make(map[*types.Func][]*FuncInfo),
		immutable: make(map[*types.TypeName]bool),
	}
	for _, u := range units {
		for _, f := range u.Files {
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					p.indexFunc(u, d)
				case *ast.GenDecl:
					p.indexTypes(u, d)
				}
			}
		}
	}
	for _, u := range units {
		for _, f := range u.Files {
			for _, decl := range f.Decls {
				if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
					p.collectCalls(u, fd)
				}
			}
		}
	}
	return p
}

func (p *Program) indexFunc(u *Unit, fd *ast.FuncDecl) {
	if fd.Body == nil {
		return
	}
	obj, ok := u.Info.Defs[fd.Name].(*types.Func)
	if !ok {
		return
	}
	fi := &FuncInfo{
		Obj:     obj,
		Decl:    fd,
		Unit:    u,
		Hotpath: hasDirective(fd.Doc, hotpathDirective),
	}
	p.funcs[obj] = fi
	p.order = append(p.order, fi)
}

func (p *Program) indexTypes(u *Unit, gd *ast.GenDecl) {
	for _, spec := range gd.Specs {
		ts, ok := spec.(*ast.TypeSpec)
		if !ok {
			continue
		}
		// The directive may sit on the type spec or, for single-spec
		// declarations, on the enclosing GenDecl.
		if !hasDirective(ts.Doc, immutableDirective) &&
			!(len(gd.Specs) == 1 && hasDirective(gd.Doc, immutableDirective)) {
			continue
		}
		if tn, ok := u.Info.Defs[ts.Name].(*types.TypeName); ok {
			p.immutable[tn] = true
		}
	}
}

// collectCalls records every call site in fd's body, including those inside
// nested function literals.
func (p *Program) collectCalls(u *Unit, fd *ast.FuncDecl) {
	fi := p.funcs[u.Info.Defs[fd.Name].(*types.Func)]
	if fi == nil {
		return
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		site, ok := p.resolveCall(u, call)
		if !ok {
			return true
		}
		site.Caller = fi
		fi.Calls = append(fi.Calls, site)
		if site.Kind == CallStatic && site.Callee != nil {
			if callee := p.funcs[site.Callee]; callee != nil {
				p.callers[site.Callee] = append(p.callers[site.Callee], fi)
			}
		}
		return true
	})
}

// resolveCall classifies one call expression. Conversions and builtins are
// not calls in the graph sense and return ok=false.
func (p *Program) resolveCall(u *Unit, call *ast.CallExpr) (CallSite, bool) {
	fun := ast.Unparen(call.Fun)
	if tv, ok := u.Info.Types[fun]; ok && tv.IsType() {
		return CallSite{}, false // conversion
	}
	switch f := fun.(type) {
	case *ast.Ident:
		switch obj := objectOf(u.Info, f).(type) {
		case *types.Builtin:
			return CallSite{}, false
		case *types.Func:
			return CallSite{Call: call, Callee: obj, Kind: CallStatic}, true
		case *types.Var:
			return CallSite{Call: call, Kind: CallFuncValue}, true
		case *types.Nil:
			return CallSite{}, false
		}
		return CallSite{}, false
	case *ast.SelectorExpr:
		if sel, ok := u.Info.Selections[f]; ok {
			if sel.Kind() != types.MethodVal {
				// Method expressions/field func values called later are
				// func-value calls at their call sites; a field of func
				// type selected and called here is dynamic.
				return CallSite{Call: call, Kind: CallFuncValue}, true
			}
			m, ok := sel.Obj().(*types.Func)
			if !ok {
				return CallSite{Call: call, Kind: CallFuncValue}, true
			}
			if types.IsInterface(sel.Recv()) {
				return CallSite{Call: call, Callee: m, Kind: CallInterface}, true
			}
			return CallSite{Call: call, Callee: m, Kind: CallStatic}, true
		}
		// No selection: a package-qualified reference.
		switch obj := objectOf(u.Info, f.Sel).(type) {
		case *types.Func:
			return CallSite{Call: call, Callee: obj, Kind: CallStatic}, true
		case *types.Var:
			return CallSite{Call: call, Kind: CallFuncValue}, true
		}
		return CallSite{}, false
	case *ast.IndexExpr, *ast.IndexListExpr:
		// Generic instantiation: resolve through the index expression.
		var inner ast.Expr
		if ix, ok := fun.(*ast.IndexExpr); ok {
			inner = ix.X
		} else {
			inner = fun.(*ast.IndexListExpr).X
		}
		if id, ok := ast.Unparen(inner).(*ast.Ident); ok {
			if fn, ok := objectOf(u.Info, id).(*types.Func); ok {
				return CallSite{Call: call, Callee: fn, Kind: CallStatic}, true
			}
		}
		return CallSite{Call: call, Kind: CallFuncValue}, true
	default:
		// Calling a func literal, a call result, a type assertion, etc.
		return CallSite{Call: call, Kind: CallFuncValue}, true
	}
}

// Funcs returns every module function in deterministic load order.
func (p *Program) Funcs() []*FuncInfo { return p.order }

// Callers returns the module functions holding a static call edge to obj.
func (p *Program) Callers(obj *types.Func) []*FuncInfo { return p.callers[obj] }

// Immutable reports whether the named type carries //atis:immutable.
func (p *Program) Immutable(tn *types.TypeName) bool { return p.immutable[tn] }

// hasDirective reports whether the comment group carries the directive as a
// standalone comment line (exact match or directive followed by a space).
func hasDirective(doc *ast.CommentGroup, directive string) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		if c.Text == directive || strings.HasPrefix(c.Text, directive+" ") {
			return true
		}
	}
	return false
}

// shortFuncName renders a function for diagnostics: pkg.Func for top-level
// functions, pkg.Type.Method for methods.
func shortFuncName(f *types.Func) string {
	name := f.Name()
	sig, ok := f.Type().(*types.Signature)
	if ok && sig.Recv() != nil {
		t := sig.Recv().Type()
		if ptr, ok := t.(*types.Pointer); ok {
			t = ptr.Elem()
		}
		if named, ok := types.Unalias(t).(*types.Named); ok {
			name = named.Obj().Name() + "." + name
		}
	}
	if f.Pkg() != nil {
		name = f.Pkg().Name() + "." + name
	}
	return name
}
