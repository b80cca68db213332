package analysis

import (
	"go/ast"
	"go/types"
)

// Streamserve guards the streaming-serve work from the wire-efficiency
// PR: the package-serving paths in internal/tsr and internal/edge
// stream verified bytes (store.Streamer + tsr.NewVerifiedReader)
// instead of buffering whole packages with io.ReadAll — one careless
// ReadAll on a multi-hundred-MB package path undoes the memory-bound
// argument for the serving tier. The analyzer flags every io.ReadAll
// in non-test code of those packages; the handful of sites that
// legitimately buffer (bounded policy and ingest uploads, bounded
// error snippets) carry //lint:allow streamserve annotations with
// their bounds documented.
var Streamserve = &Analyzer{
	Name: "streamserve",
	Doc:  "serving-tier code must stream packages; io.ReadAll needs a documented bound",
	Applies: func(pkgPath string) bool {
		return pathHasSuffixSegments(pkgPath, "internal/tsr") ||
			pathHasSuffixSegments(pkgPath, "internal/edge")
	},
	Run: runStreamserve,
}

func runStreamserve(pass *Pass) error {
	for _, f := range pass.Files {
		if pass.InTestFile(f.Pos()) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
			if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "io" || fn.Name() != "ReadAll" {
				return true
			}
			pass.Reportf(call.Pos(), "io.ReadAll buffers a whole body on the serving tier; stream through store.Streamer/tsr.NewVerifiedReader, or annotate a bounded read with //lint:allow streamserve <reason>")
			return true
		})
	}
	return nil
}
