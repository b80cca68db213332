// Package analysis is the repo's static-analysis suite: a set of
// tsr-specific analyzers that mechanically enforce the invariants the
// system's security and performance arguments rest on — edges never
// sign, handler errors route through statusFor, published snapshots
// are frozen, the serving path is lock-free, deterministic packages
// stay deterministic, outgoing HTTP always carries a context and a
// timeout, and blobs read from a store are never written. docs/LINT.md describes each invariant and where it came
// from.
//
// The API deliberately mirrors the shape of golang.org/x/tools'
// go/analysis (Analyzer, Pass, Reportf) so the suite could be ported
// to the real framework if that dependency ever becomes available;
// the build environment pins this module to the standard library, so
// the loading and driving machinery (load.go, cmd/tsrlint) is
// implemented here on go/types export data instead of go/packages.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// An Analyzer is one named invariant check.
type Analyzer struct {
	// Name is the analyzer's identifier, used in diagnostics, in
	// //lint:allow comments, and on the tsrlint command line.
	Name string
	// Doc is a one-paragraph description of the invariant.
	Doc string
	// Applies filters packages by import path. A nil Applies runs the
	// analyzer on every package. The driver consults it; the test
	// harness runs analyzers directly so testdata packages can opt in
	// regardless of their synthetic import paths.
	Applies func(pkgPath string) bool
	// Run performs the check on one package unit, reporting findings
	// through the Pass.
	Run func(*Pass) error
}

// A Pass carries one type-checked package unit through one analyzer.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	report func(Diagnostic)
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// InTestFile reports whether pos falls in a _test.go file. Most
// analyzers enforce production-code invariants and skip test files;
// detrand's seed check deliberately does not.
func (p *Pass) InTestFile(pos token.Pos) bool {
	f := p.Fset.File(pos)
	return f != nil && strings.HasSuffix(f.Name(), "_test.go")
}

// A Diagnostic is one reported violation.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s (%s)", d.Pos, d.Message, d.Analyzer)
}

// A Unit is one type-checked package ready for analysis: the parsed
// files plus full type information.
type Unit struct {
	Path      string // package import path
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
}

// NewInfo returns a types.Info populated with every map the analyzers
// rely on.
func NewInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
}

// RunUnit runs every applicable analyzer over one unit, applies the
// //lint:allow escape hatch, and returns the surviving diagnostics in
// deterministic position order. Malformed allow comments (no reason,
// unknown analyzer) are themselves reported, so a suppression can
// never be silently wrong.
func RunUnit(u *Unit, analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, a := range analyzers {
		if a.Applies != nil && !a.Applies(u.Path) {
			continue
		}
		pass := &Pass{
			Analyzer:  a,
			Fset:      u.Fset,
			Files:     u.Files,
			Pkg:       u.Pkg,
			TypesInfo: u.TypesInfo,
			report:    func(d Diagnostic) { diags = append(diags, d) },
		}
		if err := pass.Analyzer.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %s: %w", a.Name, u.Path, err)
		}
	}
	// Allow directives are checked against the whole suite, not the
	// analyzers this run selected: an allow for an analyzer left out of
	// a -checks subset names a real analyzer, and suppresses nothing
	// only because that analyzer did not run.
	allows, bad := collectAllows(u, analyzerNames(All()))
	diags = allows.filter(diags)
	diags = append(diags, bad...)
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
	return diags, nil
}

func analyzerNames(analyzers []*Analyzer) map[string]bool {
	names := make(map[string]bool, len(analyzers))
	for _, a := range analyzers {
		names[a.Name] = true
	}
	return names
}

// pathHasSuffixSegments reports whether path ends with the given
// slash-separated segment suffix, on segment boundaries: both
// "tsr/internal/edge" and "internal/edge" match "internal/edge", but
// "tsr/internal/hedge" does not.
func pathHasSuffixSegments(path, suffix string) bool {
	return path == suffix || strings.HasSuffix(path, "/"+suffix)
}

// pathHasSegment reports whether one of path's slash-separated
// elements equals seg (e.g. pathHasSegment("tsr/cmd/tsrd", "cmd")).
func pathHasSegment(path, seg string) bool {
	for _, el := range strings.Split(path, "/") {
		if el == seg {
			return true
		}
	}
	return false
}
