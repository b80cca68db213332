package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// Durablewrite keeps every durable file write on durable.WriteFile. The
// origin's rollback defence (§5.5) rests on the TPM's NV bank, tsrd's
// host-state file and the data-dir store reaching disk whole and in
// order, and those files were once written three ways, one of which
// never synced. The analyzer flags every use of os.Rename and
// os.WriteFile in non-test code of internal/ (internal/durable and its
// subpackages excepted), cmd/tsrd and cmd/tsredge. A write whose file
// nothing reads back after a crash, such as a report, carries a
// //lint:allow durablewrite annotation saying so.
var Durablewrite = &Analyzer{
	Name: "durablewrite",
	Doc:  "files are replaced through durable.WriteFile, not os.Rename or os.WriteFile",
	Applies: func(pkgPath string) bool {
		if strings.Contains("/"+pkgPath+"/", "/internal/durable/") {
			return false
		}
		return pathHasSegment(pkgPath, "internal") ||
			pathHasSuffixSegments(pkgPath, "cmd/tsrd") ||
			pathHasSuffixSegments(pkgPath, "cmd/tsredge")
	},
	Run: runDurablewrite,
}

func runDurablewrite(pass *Pass) error {
	for _, f := range pass.Files {
		if pass.InTestFile(f.Pos()) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			fn, ok := pass.TypesInfo.Uses[id].(*types.Func)
			if ok && fn.Pkg() != nil && fn.Pkg().Path() == "os" &&
				(fn.Name() == "Rename" || fn.Name() == "WriteFile") {
				pass.Reportf(id.Pos(), "os.%s can leave a file empty or old after a crash; replace it with durable.WriteFile (or annotate an output nothing reads back with //lint:allow durablewrite <reason>)", fn.Name())
			}
			return true
		})
	}
	return nil
}
