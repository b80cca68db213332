package analysis

import (
	"go/ast"
	"go/types"
)

// Snapfreeze enforces the snapshot immutability invariant from PR 2
// (origin) and PR 3 (edge): the entire lock-free read path rests on
// published snapshots never changing. tsr.snapshot and the
// tsr.Published generation inside it — which is also an edge replica's
// whole published state — are built off to the side and swapped in
// with one atomic.Pointer.Store; after that instant, concurrent readers
// hold the pointer, so ANY field write is a data race and a correctness
// bug. The analyzer freezes the types at the source level: their
// fields may only be assigned inside the designated build/publish
// functions, where the state is provably not yet shared. (Published
// has none: tsr.Publish returns it as one composite literal.) A
// generation's wire memo (tsr.wireMemo, tsr.deltaWire) is shared from
// the moment it is published and filled later, so its fields may be
// written only by its fill functions, each run under its sync.Once;
// every reader, the serving routes included, sees them after the Once.
var Snapfreeze = &Analyzer{
	Name: "snapfreeze",
	Doc:  "snapshot/Published fields may only be written in their build/publish functions, wire-memo fields in their fill functions",
	Applies: func(pkgPath string) bool {
		return pathHasSuffixSegments(pkgPath, "internal/tsr") ||
			pathHasSuffixSegments(pkgPath, "internal/edge")
	},
	Run: runSnapfreeze,
}

// snapfreezeTypes maps each frozen type to the functions allowed to
// write its fields — the build/publish sites that run before the
// atomic.Pointer.Store makes the value shared, and the memo fills that
// run once under a sync.Once.
var snapfreezeTypes = map[string]map[string]bool{
	"snapshot":  {"publishLocked": true},
	"Published": {},
	"wireMemo":  {"fillIndex": true},
	"deltaWire": {"fill": true},
}

func runSnapfreeze(pass *Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil || pass.InTestFile(fn.Pos()) {
				continue
			}
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				var targets []ast.Expr
				switch st := n.(type) {
				case *ast.AssignStmt:
					targets = st.Lhs
				case *ast.IncDecStmt:
					targets = []ast.Expr{st.X}
				default:
					return true
				}
				for _, lhs := range targets {
					sel, ok := lhs.(*ast.SelectorExpr)
					if !ok {
						continue
					}
					selection := pass.TypesInfo.Selections[sel]
					if selection == nil || selection.Kind() != types.FieldVal {
						continue
					}
					typeName := namedTypeName(selection.Recv())
					allowed, frozen := snapfreezeTypes[typeName]
					if !frozen || allowed[fn.Name.Name] {
						continue
					}
					pass.Reportf(lhs.Pos(), "%s.%s is written outside %s's build/publish functions; published snapshots are immutable (build a new one and atomically swap it)", typeName, sel.Sel.Name, typeName)
				}
				return true
			})
		}
	}
	return nil
}

// namedTypeName returns the name of t's named type, dereferencing one
// level of pointer; "" if t is not named.
func namedTypeName(t types.Type) string {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name()
	}
	return ""
}
