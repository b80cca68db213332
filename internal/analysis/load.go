package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
)

// The loader type-checks the packages under analysis from source,
// resolving their imports through compiler export data produced by
// `go list -export`. This is the same modular strategy go vet's
// unitchecker uses, reimplemented on the standard library: no package
// is ever type-checked twice, dependencies are read as export data
// (fast, and immune to test-import cycles), and only the packages
// actually being linted are parsed.

// listedPkg is the subset of `go list -json` output the loader needs.
type listedPkg struct {
	ImportPath   string
	Dir          string
	GoFiles      []string
	CgoFiles     []string
	TestGoFiles  []string
	XTestGoFiles []string
	Export       string
	DepOnly      bool
	Standard     bool
	ImportMap    map[string]string
	Error        *struct{ Err string }
}

// goList runs `go list -export -deps -json` over the given patterns
// and merges the result into pkgs (keyed by import path).
func goList(dir string, pkgs map[string]*listedPkg, patterns ...string) error {
	args := append([]string{
		"list", "-export", "-deps",
		"-json=ImportPath,Dir,GoFiles,CgoFiles,TestGoFiles,XTestGoFiles,Export,DepOnly,Standard,ImportMap,Error",
	}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return fmt.Errorf("go list %v: %w\n%s", patterns, err, stderr.String())
	}
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		p := new(listedPkg)
		if err := dec.Decode(p); err == io.EOF {
			return nil
		} else if err != nil {
			return fmt.Errorf("decoding go list output: %w", err)
		}
		if p.Error != nil {
			return fmt.Errorf("go list: %s: %s", p.ImportPath, p.Error.Err)
		}
		if _, ok := pkgs[p.ImportPath]; !ok {
			pkgs[p.ImportPath] = p
		}
	}
}

// LoadDir parses and type-checks the single package in dir — every
// .go file, _test.go included — under the given import path, without
// requiring the package to be part of the module's build graph. The
// analysistest harness uses it to load testdata packages (which go
// tooling ignores) with real type information: their imports are
// resolved through `go list -export` run in moduleDir, so testdata
// may import both the standard library and this module's packages.
// An import of a deps package's path resolves to that package, so
// testdata packages loaded earlier can stand in for a module's own.
func LoadDir(moduleDir, dir, importPath string, deps ...*types.Package) (*Unit, error) {
	names, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		return nil, err
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("no .go files in %s", dir)
	}
	sort.Strings(names)
	fset := token.NewFileSet()
	var files []*ast.File
	imports := make(map[string]bool)
	for _, name := range names {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
		for _, spec := range f.Imports {
			if path, err := strconv.Unquote(spec.Path.Value); err == nil {
				imports[path] = true
			}
		}
	}
	local := make(map[string]*types.Package)
	for _, dep := range deps {
		local[dep.Path()] = dep
		delete(imports, dep.Path())
	}
	pkgs := make(map[string]*listedPkg)
	if len(imports) > 0 {
		var paths []string
		for path := range imports {
			paths = append(paths, path)
		}
		sort.Strings(paths)
		if err := goList(moduleDir, pkgs, paths...); err != nil {
			return nil, err
		}
	}
	exportFile := func(path string) (string, error) {
		p, ok := pkgs[path]
		if !ok || p.Export == "" {
			return "", fmt.Errorf("no export data for %q", path)
		}
		return p.Export, nil
	}
	exported := newExportImporter(fset, exportFile)
	info := newInfo()
	conf := types.Config{
		Importer: importerFunc(func(path string) (*types.Package, error) {
			if pkg, ok := local[path]; ok {
				return pkg, nil
			}
			return exported.Import(path)
		}),
		Sizes: types.SizesFor("gc", "amd64"),
	}
	pkg, err := conf.Check(importPath, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("type-checking %s: %w", dir, err)
	}
	return &Unit{Path: importPath, Fset: fset, Files: files, Pkg: pkg, TypesInfo: info}, nil
}

// newExportImporter builds the types.Importer that reads compiler
// export data files. Load shares one across its units and wraps it per
// unit with mapImports to apply that unit's import remapping, so every
// dependency's export data is decoded exactly once.
func newExportImporter(fset *token.FileSet, exportFile func(path string) (string, error)) types.ImporterFrom {
	return importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		file, err := exportFile(path)
		if err != nil {
			return nil, err
		}
		return os.Open(file)
	}).(types.ImporterFrom)
}

// mapImports remaps import paths (vendoring, test variants) before
// delegating; paths not in the map import as themselves.
func mapImports(base types.ImporterFrom, importMap map[string]string) types.Importer {
	return importerFunc(func(path string) (*types.Package, error) {
		if resolved, ok := importMap[path]; ok {
			path = resolved
		}
		return base.ImportFrom(path, "", 0)
	})
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// Load lists, parses, and type-checks the packages matching the
// patterns (run in dir, typically the module root) and returns one
// Unit per package. Each package's own files — including in-package
// _test.go files and the external _test package, which go tooling
// treats as a separate unit — are parsed from source; everything they
// import is consumed as export data.
func Load(dir string, patterns ...string) ([]*Unit, error) {
	pkgs := make(map[string]*listedPkg)
	if err := goList(dir, pkgs, patterns...); err != nil {
		return nil, err
	}

	fset := token.NewFileSet()
	type parsed struct {
		pkg     *listedPkg
		path    string // unit path ("p" or "p_test" for the external test package)
		files   []*ast.File
		imports map[string]bool
	}
	var units []parsed
	parseAll := func(p *listedPkg, names []string) ([]*ast.File, map[string]bool, error) {
		var files []*ast.File
		imports := make(map[string]bool)
		for _, name := range names {
			full := filepath.Join(p.Dir, name)
			f, err := parser.ParseFile(fset, full, nil, parser.ParseComments)
			if err != nil {
				return nil, nil, err
			}
			files = append(files, f)
			for _, spec := range f.Imports {
				if path, err := strconv.Unquote(spec.Path.Value); err == nil {
					imports[path] = true
				}
			}
		}
		return files, imports, nil
	}

	var paths []string
	for path, p := range pkgs {
		if !p.DepOnly {
			paths = append(paths, path)
		}
	}
	sort.Strings(paths) // deterministic unit order
	for _, path := range paths {
		p := pkgs[path]
		if len(p.CgoFiles) > 0 {
			return nil, fmt.Errorf("%s: cgo packages are not supported by tsrlint", path)
		}
		files, imports, err := parseAll(p, append(append([]string{}, p.GoFiles...), p.TestGoFiles...))
		if err != nil {
			return nil, err
		}
		units = append(units, parsed{pkg: p, path: path, files: files, imports: imports})
		if len(p.XTestGoFiles) > 0 {
			xfiles, ximports, err := parseAll(p, p.XTestGoFiles)
			if err != nil {
				return nil, err
			}
			units = append(units, parsed{pkg: p, path: path + "_test", files: xfiles, imports: ximports})
		}
	}

	// Test files may import packages absent from the non-test
	// dependency graph (testing, httptest, ...): list them — and their
	// deps — in one extra go list call.
	var missing []string
	seen := make(map[string]bool)
	for _, u := range units {
		for imp := range u.imports {
			if _, ok := pkgs[imp]; !ok && !seen[imp] {
				seen[imp] = true
				missing = append(missing, imp)
			}
		}
	}
	sort.Strings(missing)
	if len(missing) > 0 {
		if err := goList(dir, pkgs, missing...); err != nil {
			return nil, err
		}
	}

	exportFile := func(path string) (string, error) {
		p, ok := pkgs[path]
		if !ok {
			return "", fmt.Errorf("no listed package for import %q", path)
		}
		if p.Export == "" {
			return "", fmt.Errorf("no export data for %q", path)
		}
		return p.Export, nil
	}

	base := newExportImporter(fset, exportFile)
	var result []*Unit
	for _, u := range units {
		info := newInfo()
		conf := types.Config{
			Importer: mapImports(base, u.pkg.ImportMap),
			Sizes:    types.SizesFor("gc", "amd64"),
		}
		pkg, err := conf.Check(u.path, fset, u.files, info)
		if err != nil {
			return nil, fmt.Errorf("type-checking %s: %w", u.path, err)
		}
		result = append(result, &Unit{Path: u.path, Fset: fset, Files: u.files, Pkg: pkg, TypesInfo: info})
	}
	return result, nil
}
