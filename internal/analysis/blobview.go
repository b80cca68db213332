package analysis

import (
	"go/ast"
	"go/types"
	"path"
)

// Blobview enforces the copy-free blob contract of store.Store and of
// the update path upstream of it: a Get result is read-only, because it
// may be the stored value itself, and Put takes ownership of the slice
// it is handed; a mirror's FetchPackage result is read-only, because it
// is the repository snapshot's bytes, shared by every mirror synced
// from it. No defensive copy protects any side any more (every reader
// re-verifies what it gets back against a signed entry), so a caller
// that writes into such a slice would corrupt the bytes for everyone
// sharing them. Within each function, the analyzer marks the
// identifiers assigned from a store's Get, from tsr.GetVerified or
// tsr.StoredManifest, from the edge's fetchEntry or storedBase (a
// tier's stored diff base), from FetchPackage on a tsr.PackageFetcher
// or a mirror.Mirror, or from an element of a repository's or snapshot's
// package map, and the identifiers passed as data to a store's Put; it
// reports an element write to any of them or a copy into them. A
// "store" is any type that implements store.Store. The rule is
// flow-insensitive: a name that ever holds a view is a view for the
// whole function, so a private copy takes a new name.
var Blobview = &Analyzer{
	Name: "blobview",
	Doc:  "store Get results, mirror package bytes and the slices handed to Put are read-only",
	Applies: func(pkgPath string) bool {
		for _, p := range []string{"internal/tsr", "internal/edge", "internal/store", "internal/pkgmgr", "internal/mirror", "internal/repo"} {
			if pathHasSuffixSegments(pkgPath, p) {
				return true
			}
		}
		return false
	},
	Run: runBlobview,
}

// blobviewSources are the non-store methods and the functions that
// hand out read-only views, by receiver type (a function: by the last
// element of its package path) and name, with what the diagnostic says
// of them.
var blobviewSources = map[string]map[string]string{
	"Replica":        {"fetchEntry": whyStore},
	"PackageFetcher": {"FetchPackage": whyMirror},
	"Mirror":         {"FetchPackage": whyMirror},
	"tsr":            {"GetVerified": whyStore, "StoredManifest": whyStore},
	"edge":           {"storedBase": whyStore},
}

// blobviewMaps are the map fields, by struct type and field name, whose
// values are read-only: the packages a repository stores and a
// snapshot shares.
var blobviewMaps = map[string]map[string]bool{
	"Repository": {"packages": true},
	"Snapshot":   {"Packages": true},
}

const (
	whyStore  = "came from a store read"
	whyMirror = "came from a mirror's FetchPackage"
	whyMap    = "is a repository's stored package"
)

func runBlobview(pass *Pass) error {
	iface := storeInterface(pass.Pkg)
	// callee returns the function or method call calls, and whether
	// the method's receiver is a store.
	callee := func(call *ast.CallExpr) (*types.Func, bool) {
		id, _ := call.Fun.(*ast.Ident)
		sel, isSel := call.Fun.(*ast.SelectorExpr)
		if isSel {
			id = sel.Sel
		}
		fn, _ := pass.TypesInfo.Uses[id].(*types.Func)
		if fn == nil || !isSel || fn.Type().(*types.Signature).Recv() == nil {
			return fn, false
		}
		tv, ok := pass.TypesInfo.Types[sel.X]
		return fn, ok && iface != nil && implementsStore(tv.Type, iface)
	}
	// source says why e's value is a view, or "" when it is not one.
	source := func(e ast.Expr) string {
		switch e := ast.Unparen(e).(type) {
		case *ast.CallExpr:
			fn, onStore := callee(e)
			switch {
			case fn == nil:
				return ""
			case onStore && fn.Name() == "Get":
				return whyStore
			case fn.Type().(*types.Signature).Recv() == nil:
				return blobviewSources[path.Base(fn.Pkg().Path())][fn.Name()]
			}
			recv := fn.Type().(*types.Signature).Recv().Type()
			return blobviewSources[namedTypeName(recv)][fn.Name()]
		case *ast.IndexExpr:
			sel, ok := ast.Unparen(e.X).(*ast.SelectorExpr)
			if !ok {
				return ""
			}
			field, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Var)
			if !ok || !field.IsField() {
				return ""
			}
			if _, isMap := field.Type().Underlying().(*types.Map); !isMap {
				return ""
			}
			if tv, ok := pass.TypesInfo.Types[sel.X]; ok && blobviewMaps[namedTypeName(tv.Type)][field.Name()] {
				return whyMap
			}
		}
		return ""
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
					markAssigned(n.Lhs, n.Rhs, source, mark)
				case *ast.ValueSpec:
					lhs := make([]ast.Expr, len(n.Names))
					for i, id := range n.Names {
						lhs[i] = id
					}
					markAssigned(lhs, n.Values, source, mark)
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
// view source: the first result of a multi-value call or a comma-ok map
// read, or the matching right-hand side of a one-to-one assignment.
func markAssigned(lhs, rhs []ast.Expr, source func(ast.Expr) string, mark func(ast.Expr, string)) {
	switch {
	case len(rhs) == 1 && len(lhs) > 1:
		if why := source(rhs[0]); why != "" {
			mark(lhs[0], why)
		}
	case len(rhs) == len(lhs):
		for i := range rhs {
			if why := source(rhs[i]); why != "" {
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
