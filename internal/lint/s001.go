package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// AnalyzerS001 enforces snapshot field coverage. The module's save graph is
// every function with a *snap.Codec parameter — Snap/snap methods, their
// helpers (snapSharded, snapClock, snapSegment, …), and SnapState
// implementations. One codec sequence both saves and loads, so the graph
// also holds restore-only code; that code sits behind the codec's Loading
// method, and a reference that only runs when loading — inside the body of
// `if c.Loading() && …`, in the conjuncts after the Loading call, or in the
// else branch of `if !c.Loading()` — encodes nothing and does not count. A
// struct type declared in a snapshot package is under the coverage
// contract as soon as any of its fields is referenced by the save graph
// (guest.Kernel.Snap codes Lock/Task/VCPU fields inline, so owning a Snap
// method is not required). Every field of a contract type must then be
// referenced somewhere in the save graph or carry a `//snap:skip reason`
// annotation on its declaration — pools, closures, caches, and state
// re-derived on restore are the sanctioned skips.
var AnalyzerS001 = &Analyzer{
	Name: "S001",
	Doc:  "every field of a snapshotted struct is encoded or carries //snap:skip",
	Run:  runS001,
}

// snapFacts is the module-wide save-graph sweep behind S001 and U001.
type snapFacts struct {
	// covered maps a struct field to one save-graph position referencing it.
	covered map[*types.Var]token.Pos
	// contract holds every struct type with at least one covered field.
	contract map[*TypeFact]bool
}

// snapshotFacts sweeps the save graph once per run.
func (f *Facts) snapshotFacts(cfg *Config) *snapFacts {
	if f.snap != nil {
		return f.snap
	}
	sf := &snapFacts{
		covered:  make(map[*types.Var]token.Pos),
		contract: make(map[*TypeFact]bool),
	}
	for _, ff := range f.Funcs {
		if paramOfType(ff, "Codec") == nil {
			continue
		}
		pkg := ff.Pkg
		walkSaved(pkg.Info, ff.Decl.Body, func(sel *ast.SelectorExpr) {
			selection := pkg.Info.Selections[sel]
			if selection == nil || selection.Kind() != types.FieldVal {
				return
			}
			if v, ok := selection.Obj().(*types.Var); ok {
				if _, seen := sf.covered[v]; !seen {
					sf.covered[v] = sel.Pos()
				}
			}
		})
	}
	for v := range sf.covered {
		if field := f.fields[v]; field != nil && cfg.isSnapshotPkg(field.Owner.Pkg.PkgPath) {
			sf.contract[field.Owner] = true
		}
	}
	f.snap = sf
	return sf
}

// walkSaved calls visit for every selector in body that also runs when the
// codec saves, skipping the load-only regions described on AnalyzerS001.
func walkSaved(info *types.Info, body ast.Node, visit func(*ast.SelectorExpr)) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectorExpr:
			visit(n)
		case *ast.IfStmt:
			if n.Init != nil {
				walkSaved(info, n.Init, visit)
			}
			conds := conjuncts(n.Cond)
			for i, cond := range conds {
				if isLoadingCall(info, cond) {
					// Everything after a positive Loading conjunct, and
					// the body it guards, runs only when loading.
					if n.Else != nil {
						walkSaved(info, n.Else, visit)
					}
					return false
				}
				walkSaved(info, cond, visit)
				if i == 0 && len(conds) == 1 {
					if not, ok := unparen(cond).(*ast.UnaryExpr); ok && not.Op == token.NOT && isLoadingCall(info, not.X) {
						walkSaved(info, n.Body, visit)
						return false // the else branch of !Loading is load-only
					}
				}
			}
			walkSaved(info, n.Body, visit)
			if n.Else != nil {
				walkSaved(info, n.Else, visit)
			}
			return false
		}
		return true
	})
}

// conjuncts flattens an && chain into its operands, left to right.
func conjuncts(e ast.Expr) []ast.Expr {
	if b, ok := unparen(e).(*ast.BinaryExpr); ok && b.Op == token.LAND {
		return append(conjuncts(b.X), conjuncts(b.Y)...)
	}
	return []ast.Expr{e}
}

// isLoadingCall reports whether e is a call of the Loading method on a
// *snap.Codec.
func isLoadingCall(info *types.Info, e ast.Expr) bool {
	call, ok := unparen(e).(*ast.CallExpr)
	if !ok || len(call.Args) != 0 {
		return false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Loading" {
		return false
	}
	tv, ok := info.Types[sel.X]
	return ok && isSnapType(tv.Type, "Codec")
}

// paramOfType returns the first parameter of type *snap.<name> (by object,
// so the function body's uses resolve against it), or nil.
func paramOfType(ff *FuncFact, name string) *types.Var {
	params := ff.Decl.Type.Params
	if params == nil {
		return nil
	}
	for _, field := range params.List {
		for _, n := range field.Names {
			if v, ok := ff.Pkg.Info.Defs[n].(*types.Var); ok && isSnapType(v.Type(), name) {
				return v
			}
		}
	}
	return nil
}

func runS001(cfg *Config, facts *Facts, pkg *Package) []Diagnostic {
	sf := facts.snapshotFacts(cfg)
	var out []Diagnostic
	//lint:ordered RunAnalyzers sorts diagnostics by position before reporting
	for _, tf := range facts.Types {
		if tf.Pkg != pkg || !sf.contract[tf] {
			continue
		}
		for _, field := range tf.Fields {
			if _, ok := sf.covered[field.Var]; ok {
				continue // encoded (or read) by the save graph
			}
			if d := field.SnapSkip; d != nil && d.Reason != "" {
				d.used = true
				continue
			}
			out = append(out, Diagnostic{
				Pos:  pkg.position(field.Pos),
				Rule: "S001",
				Message: fmt.Sprintf(
					"field %s.%s is not encoded by any save function and carries no //snap:skip justification (sanctioned skips: pools, closures, caches, derived state)",
					tf.Obj.Name(), field.Name),
			})
		}
	}
	return out
}
