package analysis

import (
	"go/ast"
	"go/types"
	"sort"
)

// Servenolock enforces the lock-free serving path: reads (FetchIndex,
// FetchPackageTracedCtx, PackageETag, and friends) serve from the
// atomically published snapshot and must not acquire Repo.mu, the
// refresh-side lock a 10-25s sanitization cycle holds.
// One stray Lock() on the read path reintroduces the
// reads-block-for-the-whole-cycle behavior PR 2 removed — and no test
// catches it unless the test happens to race a refresh. The analyzer
// walks the static call graph from the serving-path roots and flags
// any reachable acquisition of a field named mu on type Repo.
// (Dynamic calls through interfaces or function values are invisible
// to it — keep the serving path direct.)
var Servenolock = &Analyzer{
	Name: "servenolock",
	Doc:  "serving-path functions and their callees must not acquire Repo.mu",
	Applies: func(pkgPath string) bool {
		return pathHasSuffixSegments(pkgPath, "internal/tsr")
	},
	Run: runServenolock,
}

// servenolockRoots are the serving-path entry points: everything a
// client request can reach. The context-first methods are roots in
// their own right, not only through a plain wrapper, so each body is
// checked whether or not a context-free form calls it.
var servenolockRoots = map[string]bool{
	"FetchIndex":            true,
	"FetchIndexTaggedCtx":   true,
	"FetchIndexDeltaCtx":    true,
	"IndexETag":             true,
	"Current":               true,
	"PackageETag":           true,
	"FetchPackage":          true,
	"FetchPackageCtx":       true,
	"FetchPackageTracedCtx": true,
	"OpenPackageCtx":        true,
	"FetchChunkManifestCtx": true,
	"FetchManifestBlobCtx":  true,
	"FetchPackageRangeCtx":  true,
	"CacheStats":            true,
}

// servenolockAcquire are the mutex methods that take the lock.
var servenolockAcquire = map[string]bool{
	"Lock": true, "RLock": true, "TryLock": true, "TryRLock": true,
}

func runServenolock(pass *Pass) error {
	// Map every function declared in this package to its declaration.
	decls := make(map[*types.Func]*ast.FuncDecl)
	for _, f := range pass.Files {
		if pass.InTestFile(f.Pos()) {
			continue
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			if obj, ok := pass.TypesInfo.Defs[fn.Name].(*types.Func); ok {
				decls[obj] = fn
			}
		}
	}

	// BFS from the roots across package-local static calls, remembering
	// which root reached each function for the diagnostic.
	type visit struct {
		fn   *ast.FuncDecl
		root string
	}
	var queue []visit
	visited := make(map[*types.Func]bool)
	for obj, fn := range decls {
		if servenolockRoots[obj.Name()] && obj.Type().(*types.Signature).Recv() != nil {
			visited[obj] = true
			queue = append(queue, visit{fn, obj.Name()})
		}
	}
	// Map iteration seeded the queue in random order; sort so a callee
	// shared by several roots is always attributed to the same one.
	sort.Slice(queue, func(i, j int) bool { return queue[i].root < queue[j].root })
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		ast.Inspect(v.fn.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			// Flag mu acquisitions in this function.
			if sel, ok := call.Fun.(*ast.SelectorExpr); ok && servenolockAcquire[sel.Sel.Name] {
				if field, ok := sel.X.(*ast.SelectorExpr); ok && field.Sel.Name == "mu" {
					if selection := pass.TypesInfo.Selections[field]; selection != nil &&
						selection.Kind() == types.FieldVal && namedTypeName(selection.Recv()) == "Repo" {
						pass.Reportf(call.Pos(), "serving path acquires Repo.mu (reachable from %s); reads must serve the published snapshot lock-free", v.root)
					}
				}
			}
			// Follow static calls to package-local functions.
			var callee types.Object
			switch fun := call.Fun.(type) {
			case *ast.Ident:
				callee = pass.TypesInfo.Uses[fun]
			case *ast.SelectorExpr:
				callee = pass.TypesInfo.Uses[fun.Sel]
			}
			if fnObj, ok := callee.(*types.Func); ok && !visited[fnObj] {
				if decl, local := decls[fnObj]; local {
					visited[fnObj] = true
					queue = append(queue, visit{decl, v.root})
				}
			}
			return true
		})
	}
	return nil
}
