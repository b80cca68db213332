package analysis

import (
	"go/ast"
	"go/types"
)

// Blobview enforces the copy-free blob contract of store.Store: a Get
// result is read-only, because it may be the stored value itself, and
// Put takes ownership of the slice it is handed. No defensive copy
// protects either side any more (every reader re-verifies what it gets
// back against a signed entry), so a caller that writes into such a
// slice would corrupt the cache for everyone sharing it. Within each
// function, the analyzer marks the identifiers assigned from a store's
// Get, from the edge's fetchEntry or previousCached, or from the
// FailoverClient's cachedPackage or previousPackage, and the
// identifiers passed as data to a store's Put; it reports an element
// write to any of them or a copy into them. A "store" is any type that
// implements store.Store. The rule is flow-insensitive: a name that
// ever holds a view is a view for the whole function, so a private
// copy takes a new name.
var Blobview = &Analyzer{
	Name: "blobview",
	Doc:  "store Get results and the slices handed to Put are read-only",
	Applies: func(pkgPath string) bool {
		for _, p := range []string{"internal/tsr", "internal/edge", "internal/store", "internal/pkgmgr"} {
			if pathHasSuffixSegments(pkgPath, p) {
				return true
			}
		}
		return false
	},
	Run: runBlobview,
}

// blobviewSources are the non-store functions that hand out read-only
// views, by receiver type and method name.
var blobviewSources = map[string]map[string]bool{
	"Replica":        {"fetchEntry": true, "previousCached": true},
	"FailoverClient": {"cachedPackage": true, "previousPackage": true},
}

func runBlobview(pass *Pass) error {
	iface := storeInterface(pass.Pkg)
	// callee returns the method call calls, and whether its receiver is
	// a store.
	callee := func(call *ast.CallExpr) (*types.Func, bool) {
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return nil, false
		}
		fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
		if !ok || fn.Type().(*types.Signature).Recv() == nil {
			return nil, false
		}
		tv, ok := pass.TypesInfo.Types[sel.X]
		return fn, ok && iface != nil && implementsStore(tv.Type, iface)
	}
	isSource := func(e ast.Expr) bool {
		call, ok := ast.Unparen(e).(*ast.CallExpr)
		if !ok {
			return false
		}
		fn, onStore := callee(call)
		if fn == nil {
			return false
		}
		recv := fn.Type().(*types.Signature).Recv().Type()
		return onStore && fn.Name() == "Get" || blobviewSources[namedTypeName(recv)][fn.Name()]
	}
	for _, f := range pass.Files {
		if pass.InTestFile(f.Pos()) {
			continue
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			// views maps each marked identifier to why it is read-only.
			views := make(map[types.Object]string)
			mark := func(e ast.Expr, why string) {
				if id, ok := ast.Unparen(e).(*ast.Ident); ok {
					if obj := pass.TypesInfo.ObjectOf(id); obj != nil {
						views[obj] = why
					}
				}
			}
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.AssignStmt:
					markAssigned(n.Lhs, n.Rhs, isSource, mark)
				case *ast.ValueSpec:
					lhs := make([]ast.Expr, len(n.Names))
					for i, id := range n.Names {
						lhs[i] = id
					}
					markAssigned(lhs, n.Values, isSource, mark)
				case *ast.CallExpr:
					if fn, onStore := callee(n); onStore && fn.Name() == "Put" && len(n.Args) == 2 {
						mark(n.Args[1], "was handed to Put, which owns it")
					}
				}
				return true
			})
			if len(views) == 0 {
				continue
			}
			// report flags a write into target when target is, or
			// indexes or slices, a marked identifier.
			report := func(target ast.Expr) {
				base := ast.Unparen(target)
				switch t := base.(type) {
				case *ast.IndexExpr:
					base = ast.Unparen(t.X)
				case *ast.SliceExpr:
					base = ast.Unparen(t.X)
				}
				id, ok := base.(*ast.Ident)
				if !ok {
					return
				}
				if why, ok := views[pass.TypesInfo.ObjectOf(id)]; ok {
					pass.Reportf(target.Pos(), "%s is a read-only blob view (it %s); copy it to a new name before writing", id.Name, why)
				}
			}
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						if _, ok := ast.Unparen(lhs).(*ast.IndexExpr); ok {
							report(lhs)
						}
					}
				case *ast.IncDecStmt:
					if _, ok := ast.Unparen(n.X).(*ast.IndexExpr); ok {
						report(n.X)
					}
				case *ast.CallExpr:
					if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok && len(n.Args) == 2 {
						if b, ok := pass.TypesInfo.Uses[id].(*types.Builtin); ok && b.Name() == "copy" {
							report(n.Args[0])
						}
					}
				}
				return true
			})
		}
	}
	return nil
}

// markAssigned marks each left-hand identifier whose value comes from a
// view source: the first result of a multi-value call, or the matching
// right-hand side of a one-to-one assignment.
func markAssigned(lhs, rhs []ast.Expr, isSource func(ast.Expr) bool, mark func(ast.Expr, string)) {
	const why = "came from a store read"
	switch {
	case len(rhs) == 1 && len(lhs) > 1:
		if isSource(rhs[0]) {
			mark(lhs[0], why)
		}
	case len(rhs) == len(lhs):
		for i := range rhs {
			if isSource(rhs[i]) {
				mark(lhs[i], why)
			}
		}
	}
}

// storeInterface returns the store.Store interface as pkg sees it —
// from pkg itself or one of its imports — or nil when neither is the
// store package.
func storeInterface(pkg *types.Package) *types.Interface {
	for _, p := range append([]*types.Package{pkg}, pkg.Imports()...) {
		if !pathHasSuffixSegments(p.Path(), "internal/store") {
			continue
		}
		if obj, ok := p.Scope().Lookup("Store").(*types.TypeName); ok {
			iface, _ := obj.Type().Underlying().(*types.Interface)
			return iface
		}
	}
	return nil
}

// implementsStore reports whether a value of type t, or a pointer to
// one, implements iface.
func implementsStore(t types.Type, iface *types.Interface) bool {
	if types.Implements(t, iface) {
		return true
	}
	_, isPtr := t.Underlying().(*types.Pointer)
	return !isPtr && !types.IsInterface(t) && types.Implements(types.NewPointer(t), iface)
}
