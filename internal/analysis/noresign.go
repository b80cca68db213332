package analysis

import (
	"go/ast"
)

// Noresign enforces the edge tier's trust boundary, established in PR
// 3: an edge replica is UNTRUSTED infrastructure that verifies and
// re-exposes origin signatures verbatim — it must never hold or use
// signing material. The whole client-side security argument (stale or
// tampering edges are detected and routed around) collapses if an
// edge can mint valid signatures, so the signing half of
// internal/keys is banned from internal/edge outright: keys.Pair,
// Generate, ParsePrivatePEM, Sign, SignDigest, MarshalPrivatePEM, and
// the signature memo (Memo, NewMemo), which mints a Pair's signatures
// as surely as the Pair does.
// The verify half (Public, Ring, Verify*) remains available — that is
// exactly what an edge is for.
var Noresign = &Analyzer{
	Name: "noresign",
	Doc:  "internal/edge must never reference signing APIs; edges are untrusted and only verify",
	Applies: func(pkgPath string) bool {
		return pathHasSuffixSegments(pkgPath, "internal/edge")
	},
	Run: runNoresign,
}

// noresignBanned is the signing half of internal/keys.
var noresignBanned = map[string]bool{
	"Pair":              true, // the private-key type itself
	"Generate":          true,
	"ParsePrivatePEM":   true,
	"Sign":              true,
	"SignDigest":        true,
	"MarshalPrivatePEM": true,
	"Memo":              true, // hands out a Pair's signatures
	"NewMemo":           true,
}

func runNoresign(pass *Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			obj := pass.TypesInfo.Uses[id]
			if obj == nil || obj.Pkg() == nil {
				return true
			}
			if !pathHasSuffixSegments(obj.Pkg().Path(), "internal/keys") {
				return true
			}
			if !noresignBanned[obj.Name()] || pass.InTestFile(id.Pos()) {
				return true
			}
			pass.Reportf(id.Pos(), "edge code references signing API keys.%s; edges are untrusted and must only verify (use keys.Public/keys.Ring)", obj.Name())
			return true
		})
	}
	return nil
}
