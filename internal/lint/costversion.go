package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// CostVersion flags writes to a graph's edge-cost storage that do not bump
// the cost version in the same mutator. graph.ReverseView and the route
// cache key their snapshots on CostVersion(); a mutator that changes
// g.costs without g.costVersion.Add(1) silently serves stale reverse
// graphs and stale cached routes — a correctness bug with no crash to
// point at it.
//
// The pattern is structural so the fixture tests and any future
// cost-versioned store are covered alike: a struct that declares both a
// slice field named "costs" and a counter field named "costVersion" is a
// cost-versioned store, and every function that writes (assigns, appends
// to, clears, or copies into) the costs field of such a struct must also
// bump costVersion on the same receiver — via Add on an atomic counter,
// or ++/assignment on a plain one. Construction through composite
// literals (Builder.Build, Clone) does not trip the analyzer — a literal
// initialises, it does not mutate.
//
// The pairing also reaches one level of nesting, for index-shaped stores
// where the version stamp lives on the owner while the priced arrays sit
// inside embedded halves: a struct declaring costVersion next to a field
// whose struct type carries a costs slice versions that nested slice too,
// and a write through it must bump the owner's counter. Those slices are
// exactly where a stale write would desynchronise a derived structure
// from its version gate with no crash to point at it.
//
// Tracking follows slice headers through local aliases: after
// cs := m.fwd.costs, a write cs[i] = v mutates the same backing array the
// store serves from, so it is held to the same bump-the-owner rule — the
// customization kernels hoist exactly these aliases for speed. A local
// built fresh (cs := make(...), append, a composite literal) is a new
// slice, not the store's, and stays untracked; rebinding a tracked alias
// to anything untracked clears it.
type CostVersion struct{}

// NewCostVersion returns the analyzer.
func NewCostVersion() *CostVersion { return &CostVersion{} }

// Name implements Analyzer.
func (*CostVersion) Name() string { return "costversion" }

// Doc implements Analyzer.
func (*CostVersion) Doc() string {
	return "writes to versioned edge-cost storage must bump costVersion in the same mutator"
}

// Run implements Analyzer.
func (a *CostVersion) Run(u *Unit) []Diagnostic {
	costsFields := a.collectCostsFields(u)
	if len(costsFields) == 0 {
		return nil
	}
	var diags []Diagnostic
	for _, f := range u.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			diags = append(diags, a.checkFunc(u, fd, costsFields)...)
		}
	}
	return diags
}

// Depth of a tracked costs field relative to its costVersion owner:
// sameStruct pairs both fields in one struct; nested pairs a costVersion
// owner with a costs slice one struct level down (an index-shaped store),
// where the bump belongs on the outer receiver.
const (
	sameStruct = iota
	nested
)

// collectCostsFields finds the costs field of every struct that pairs it
// with a costVersion field, directly or through one nested struct field,
// mapping each to its pairing depth.
func (a *CostVersion) collectCostsFields(u *Unit) map[*types.Var]int {
	out := make(map[*types.Var]int)
	for _, f := range u.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			st, ok := n.(*ast.StructType)
			if !ok || st.Fields == nil {
				return true
			}
			var costs []*types.Var
			var inner []*types.Var // costs slices inside struct-typed fields
			hasVersion := false
			for _, field := range st.Fields.List {
				for _, name := range field.Names {
					switch name.Name {
					case "costs":
						v, ok := u.Info.Defs[name].(*types.Var)
						if !ok {
							continue
						}
						if _, isSlice := v.Type().Underlying().(*types.Slice); isSlice {
							costs = append(costs, v)
						}
					case "costVersion":
						hasVersion = true
					default:
						v, ok := u.Info.Defs[name].(*types.Var)
						if !ok {
							continue
						}
						if cv := nestedCostsField(v.Type()); cv != nil {
							inner = append(inner, cv)
						}
					}
				}
			}
			if hasVersion {
				for _, v := range costs {
					out[v] = sameStruct
				}
				for _, v := range inner {
					if _, seen := out[v]; !seen {
						out[v] = nested
					}
				}
			}
			return true
		})
	}
	return out
}

// nestedCostsField returns the costs slice field of t if t is (a pointer
// to) a struct declaring one without its own costVersion — a half-store
// whose version lives on whoever embeds it. A struct carrying its own
// costVersion is a complete store and is handled by the same-struct rule.
func nestedCostsField(t types.Type) *types.Var {
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	st, ok := t.Underlying().(*types.Struct)
	if !ok {
		return nil
	}
	var costs *types.Var
	for i := 0; i < st.NumFields(); i++ {
		f := st.Field(i)
		switch f.Name() {
		case "costVersion":
			return nil
		case "costs":
			if _, isSlice := f.Type().Underlying().(*types.Slice); isSlice {
				costs = f
			}
		}
	}
	return costs
}

// costWrite is one detected mutation of a costs field, directly or
// through a local alias of its slice header.
type costWrite struct {
	pos  token.Pos
	expr string // the written expression, for the message
	root string // expression owning the version counter ("g", "ix")
}

// checkFunc reports costs writes in fd that lack a matching costVersion
// bump on the same receiver.
func (a *CostVersion) checkFunc(u *Unit, fd *ast.FuncDecl, costsFields map[*types.Var]int) []Diagnostic {
	var writes []costWrite
	bumped := make(map[string]bool)    // receiver expressions with costVersion bumps
	aliases := make(map[string]string) // local name → owner whose costVersion it must bump

	// costsSelector resolves e (possibly through indexing/slicing) to a
	// selector of a tracked costs field, plus its pairing depth.
	costsSelector := func(e ast.Expr) (*ast.SelectorExpr, int) {
		for {
			switch x := e.(type) {
			case *ast.IndexExpr:
				e = x.X
			case *ast.SliceExpr:
				e = x.X
			case *ast.ParenExpr:
				e = x.X
			case *ast.SelectorExpr:
				sel, ok := u.Info.Selections[x]
				if !ok || sel.Kind() != types.FieldVal {
					return nil, 0
				}
				if v, ok := sel.Obj().(*types.Var); ok {
					if depth, tracked := costsFields[v]; tracked {
						return x, depth
					}
				}
				return nil, 0
			default:
				return nil, 0
			}
		}
	}
	// ownerOf names the expression whose costVersion a write through sel
	// must bump. For a nested half (ix.fwd.costs) the counter sits one
	// level up, on the owner (ix.costVersion) — peel one selector off the
	// path to name it.
	ownerOf := func(sel *ast.SelectorExpr, depth int) string {
		owner := ast.Expr(sel.X)
		if depth == nested {
			if outer, ok := ast.Unparen(owner).(*ast.SelectorExpr); ok {
				owner = outer.X
			}
		}
		return types.ExprString(owner)
	}
	// baseIdent peels indexing/slicing/parens off e down to a plain
	// identifier, if that is what anchors it.
	baseIdent := func(e ast.Expr) *ast.Ident {
		for {
			switch x := e.(type) {
			case *ast.IndexExpr:
				e = x.X
			case *ast.SliceExpr:
				e = x.X
			case *ast.ParenExpr:
				e = x.X
			case *ast.Ident:
				return x
			default:
				return nil
			}
		}
	}
	// record flags e as a store mutation when it resolves to a tracked
	// costs field or to a local alias of one. A *bare* aliased identifier
	// only mutates at clear/copy call sites (bareAliasMutates); as an
	// assignment target it merely rebinds the local.
	record := func(e ast.Expr, bareAliasMutates bool) {
		if sel, depth := costsSelector(e); sel != nil {
			writes = append(writes, costWrite{
				pos: sel.Sel.Pos(), expr: types.ExprString(sel), root: ownerOf(sel, depth),
			})
			return
		}
		id := baseIdent(e)
		if id == nil {
			return
		}
		if _, bare := ast.Unparen(e).(*ast.Ident); bare && !bareAliasMutates {
			return
		}
		if root, ok := aliases[id.Name]; ok {
			writes = append(writes, costWrite{pos: id.Pos(), expr: types.ExprString(e), root: root})
		}
	}

	// noteBump records e as a version bump when it is a selector of a
	// costVersion field — the target of an assignment, ++, or the receiver
	// of an atomic Add below.
	noteBump := func(e ast.Expr) {
		if sel, ok := ast.Unparen(e).(*ast.SelectorExpr); ok && sel.Sel.Name == "costVersion" {
			bumped[types.ExprString(sel.X)] = true
		}
	}

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.AssignStmt:
			// Alias tracking: a local assigned from a tracked costs field
			// (or from another tracked alias) inherits the tracking and the
			// owner to bump; one assigned anything else sheds it. Inspect
			// visits statements in source order, so later writes see the
			// binding in force where they occur.
			if len(x.Lhs) == len(x.Rhs) {
				for i, rhs := range x.Rhs {
					id, ok := x.Lhs[i].(*ast.Ident)
					if !ok || id.Name == "_" {
						continue
					}
					if sel, depth := costsSelector(rhs); sel != nil {
						aliases[id.Name] = ownerOf(sel, depth)
						continue
					}
					if rid, ok := ast.Unparen(rhs).(*ast.Ident); ok {
						if root, tracked := aliases[rid.Name]; tracked {
							aliases[id.Name] = root
							continue
						}
					}
					delete(aliases, id.Name)
				}
			}
			for _, lhs := range x.Lhs {
				record(lhs, false)
				noteBump(lhs) // plain-counter stores: ix.costVersion = v
			}
		case *ast.IncDecStmt:
			record(x.X, false)
			noteBump(x.X) // plain-counter stores: ix.costVersion++
		case *ast.CallExpr:
			if id, ok := x.Fun.(*ast.Ident); ok {
				switch id.Name {
				case "clear":
					if len(x.Args) == 1 {
						record(x.Args[0], true)
					}
				case "copy":
					if len(x.Args) == 2 {
						record(x.Args[0], true)
					}
				}
			}
			// costVersion.Add(...) — note the receiver it bumps.
			if sel, ok := x.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Add" {
				if inner, ok := sel.X.(*ast.SelectorExpr); ok && inner.Sel.Name == "costVersion" {
					bumped[types.ExprString(inner.X)] = true
				}
			}
		}
		return true
	})

	var diags []Diagnostic
	for _, w := range writes {
		if bumped[w.root] {
			continue
		}
		diags = append(diags, Diagnostic{
			Pos:      u.Position(w.pos),
			Analyzer: "costversion",
			Message: fmt.Sprintf("write to %s without a %s.costVersion bump in this mutator; version-gated consumers (ReverseView, the route cache, the CH index) would serve stale results",
				w.expr, w.root),
		})
	}
	return diags
}
