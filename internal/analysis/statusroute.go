package analysis

import (
	"go/ast"
	"go/constant"
	"go/types"
)

// Statusroute enforces the error-routing convention from PR 2's HTTP
// hardening: handlers in internal/tsr, internal/edge, and cmd/* never
// write error statuses ad hoc. Every error response goes through the
// httpError(w, statusFor(err), err) helper (tsr.HTTPError, which the
// edge tier shares, or a cmd package's own httpError), so status
// mapping lives in exactly one switch per tier (502 reserved for
// upstream failures, 503 for availability, sentinel-driven 4xx) and
// error bodies are uniformly JSON. Concretely: no calls to
// http.Error, and no WriteHeader with an error status — constant
// >= 400, or any non-constant code outside the httpError helper
// itself.
var Statusroute = &Analyzer{
	Name: "statusroute",
	Doc:  "HTTP handlers must route error responses through httpError(w, statusFor(err), err)",
	Applies: func(pkgPath string) bool {
		return pathHasSuffixSegments(pkgPath, "internal/tsr") ||
			pathHasSuffixSegments(pkgPath, "internal/edge") ||
			pathHasSegment(pkgPath, "cmd")
	},
	Run: runStatusroute,
}

func runStatusroute(pass *Pass) error {
	httpErrorType := httpResponseWriterType(pass)
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil || pass.InTestFile(fn.Pos()) {
				continue
			}
			isHelper := fn.Name.Name == "httpError" || fn.Name.Name == "HTTPError"
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				// http.Error(w, msg, code) — never.
				if obj, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func); ok &&
					obj.Pkg() != nil && obj.Pkg().Path() == "net/http" && obj.Name() == "Error" {
					pass.Reportf(call.Pos(), "http.Error bypasses the package's error routing; call httpError(w, statusFor(err), err) instead")
					return true
				}
				// w.WriteHeader(code) on an http.ResponseWriter.
				if sel.Sel.Name != "WriteHeader" || len(call.Args) != 1 {
					return true
				}
				if httpErrorType == nil {
					return true
				}
				recv := pass.TypesInfo.Types[sel.X].Type
				if recv == nil || !types.Implements(recv, httpErrorType) {
					return true
				}
				tv := pass.TypesInfo.Types[call.Args[0]]
				if tv.Value != nil {
					if code, ok := constant.Int64Val(constant.ToInt(tv.Value)); ok && code >= 400 {
						pass.Reportf(call.Pos(), "WriteHeader(%d) writes an error status directly; route it through httpError(w, statusFor(err), err)", code)
					}
					return true
				}
				if !isHelper {
					pass.Reportf(call.Pos(), "WriteHeader with a computed status outside the httpError helper; route errors through httpError(w, statusFor(err), err)")
				}
				return true
			})
		}
	}
	return nil
}

// httpResponseWriterType returns the net/http.ResponseWriter
// interface type if the package (transitively) imports net/http, else
// nil — a package that cannot name the type cannot violate the rule.
func httpResponseWriterType(pass *Pass) *types.Interface {
	for _, imp := range allImports(pass.Pkg) {
		if imp.Path() == "net/http" {
			if obj, ok := imp.Scope().Lookup("ResponseWriter").(*types.TypeName); ok {
				if iface, ok := obj.Type().Underlying().(*types.Interface); ok {
					return iface
				}
			}
		}
	}
	return nil
}

// allImports returns the package's direct and transitive imports.
func allImports(pkg *types.Package) []*types.Package {
	seen := make(map[*types.Package]bool)
	var out []*types.Package
	var walk func(p *types.Package)
	walk = func(p *types.Package) {
		for _, imp := range p.Imports() {
			if !seen[imp] {
				seen[imp] = true
				out = append(out, imp)
				walk(imp)
			}
		}
	}
	walk(pkg)
	return out
}
