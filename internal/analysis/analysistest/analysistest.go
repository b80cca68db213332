// Package analysistest runs a tsrlint analyzer over a testdata package
// and checks its diagnostics against expectations written in the source,
// mirroring golang.org/x/tools/go/analysis/analysistest on the standard
// library only.
//
// Expectations are `// want "regexp"` comments (or `/* want ... */`,
// which can share a line with a // directive): each quoted Go string
// on the comment is a regular expression that must match the message of
// exactly one diagnostic reported on that line. Lines without a want
// comment must produce no diagnostics. Because the harness runs the
// analyzer through analysis.RunUnit, the //lint:allow escape hatch is
// live in testdata too — a suppressed violation needs no want comment,
// and malformed directives surface as "lintallow" diagnostics that can
// themselves be matched.
package analysistest

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"tsr/internal/analysis"
)

// want is one unmatched expectation at a file:line.
type want struct {
	pos token.Position
	re  *regexp.Regexp
}

// Run loads the package rooted at dir (relative to the test's working
// directory) as if it had the given import path — which is what
// analyzer Applies scoping keys on — runs a on it, and reports any
// mismatch between the diagnostics and the // want comments through t.
//
//lint:allow deadexport the analyzer tests' harness: every analyzer test drives it
func Run(t *testing.T, a *analysis.Analyzer, dir, importPath string) {
	t.Helper()
	unit, err := analysis.LoadDir(".", dir, importPath)
	if err != nil {
		t.Fatalf("loading %s: %v", dir, err)
	}
	if a.Applies != nil && !a.Applies(importPath) {
		t.Fatalf("analyzer %s does not apply to import path %q; fix the test's importPath", a.Name, importPath)
	}
	diags, err := analysis.RunUnit(unit, []*analysis.Analyzer{a})
	if err != nil {
		t.Fatalf("running %s on %s: %v", a.Name, dir, err)
	}
	check(t, []*analysis.Unit{unit}, diags)
}

// RunModule loads testdata packages as one whole module — dirs and
// importPaths pair up, and each package may import the ones before
// it by their import paths — runs the whole-module analyzer a over
// them, and checks the diagnostics against every package's // want
// comments.
//
//lint:allow deadexport the harness for whole-module analyzer tests
func RunModule(t *testing.T, a *analysis.Analyzer, dirs, importPaths []string) {
	t.Helper()
	var units []*analysis.Unit
	var deps []*types.Package
	for i, dir := range dirs {
		unit, err := analysis.LoadDir(".", dir, importPaths[i], deps...)
		if err != nil {
			t.Fatalf("loading %s: %v", dir, err)
		}
		units = append(units, unit)
		deps = append(deps, unit.Pkg)
	}
	diags, err := analysis.RunUnits(units, []*analysis.Analyzer{a}, true)
	if err != nil {
		t.Fatalf("running %s: %v", a.Name, err)
	}
	check(t, units, diags)
}

// check reports through t every mismatch between diags and the units'
// // want comments.
func check(t *testing.T, units []*analysis.Unit, diags []analysis.Diagnostic) {
	t.Helper()
	var wants []want
	for _, u := range units {
		w, err := collectWants(u.Fset, u.Files)
		if err != nil {
			t.Fatal(err)
		}
		wants = append(wants, w...)
	}

	type key struct {
		file string
		line int
	}
	pending := make(map[key][]*want)
	for i := range wants {
		w := &wants[i]
		k := key{w.pos.Filename, w.pos.Line}
		pending[k] = append(pending[k], w)
	}

	for _, d := range diags {
		k := key{d.Pos.Filename, d.Pos.Line}
		ws := pending[k]
		matched := false
		for i, w := range ws {
			if w.re.MatchString(d.Message) {
				pending[k] = append(ws[:i:i], ws[i+1:]...)
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	var leftover []string
	for _, ws := range pending {
		for _, w := range ws {
			leftover = append(leftover, fmt.Sprintf("%s: no diagnostic matching %q", w.pos, w.re))
		}
	}
	sort.Strings(leftover)
	for _, msg := range leftover {
		t.Error(msg)
	}
}

// collectWants extracts every expectation from // want comments. A
// want comment holds one or more quoted Go strings, each compiled as a
// regexp; the expectation anchors to the line the comment starts on.
func collectWants(fset *token.FileSet, files []*ast.File) ([]want, error) {
	var wants []want
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				// A /* want */ comment leaves room for a // directive on
				// the same line.
				text := strings.TrimPrefix(c.Text, "//")
				text = strings.TrimSuffix(strings.TrimPrefix(text, "/*"), "*/")
				text = strings.TrimSpace(text)
				rest, ok := strings.CutPrefix(text, "want ")
				if !ok {
					continue
				}
				pos := fset.Position(c.Pos())
				rest = strings.TrimSpace(rest)
				if rest == "" {
					return nil, fmt.Errorf("%s: want comment has no expectations", pos)
				}
				for rest != "" {
					if rest[0] != '"' && rest[0] != '`' {
						return nil, fmt.Errorf("%s: want expectation must be a quoted Go string, got %q", pos, rest)
					}
					lit, remainder, err := cutGoString(rest)
					if err != nil {
						return nil, fmt.Errorf("%s: %v", pos, err)
					}
					expr, err := strconv.Unquote(lit)
					if err != nil {
						return nil, fmt.Errorf("%s: unquoting %s: %v", pos, lit, err)
					}
					re, err := regexp.Compile(expr)
					if err != nil {
						return nil, fmt.Errorf("%s: compiling %q: %v", pos, expr, err)
					}
					wants = append(wants, want{pos: pos, re: re})
					rest = strings.TrimSpace(remainder)
				}
			}
		}
	}
	return wants, nil
}

// cutGoString splits off the leading quoted Go string literal from s,
// returning the literal (quotes included) and the remainder.
func cutGoString(s string) (lit, rest string, err error) {
	quote := s[0]
	if quote == '`' {
		if i := strings.IndexByte(s[1:], '`'); i >= 0 {
			return s[:i+2], s[i+2:], nil
		}
		return "", "", fmt.Errorf("unterminated raw string in %q", s)
	}
	for i := 1; i < len(s); i++ {
		switch s[i] {
		case '\\':
			i++
		case quote:
			return s[:i+1], s[i+1:], nil
		}
	}
	return "", "", fmt.Errorf("unterminated string in %q", s)
}
