package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Deadexport keeps the trusted base small: the origin runs in an
// enclave, so every line under internal/ is attack surface, and an
// exported identifier that no non-test code uses is surface that
// buys nothing. It reports every exported package-level identifier
// and exported method declared in a non-test file under internal/
// that no non-test file in the module uses — cmd/, examples/ and
// bench/ included — and says when tests are its only users.
//
// Each unit type-checks its imports from export data, so one
// declaration is a different types.Object in every unit that sees it;
// declarations and uses are matched by package path, receiver type
// and name instead. A call through an interface resolves to the
// interface's method, not the concrete one, so a method is exempt
// when its name is a method of any interface the module declares or
// imports (io.WriterTo's WriteTo, fmt.Stringer's String, error's
// Error). The check needs every unit at once, so it runs only when
// tsrlint is given the whole module.
var Deadexport = &Analyzer{
	Name:      "deadexport",
	Doc:       "exported identifiers under internal/ must be used by non-test code somewhere in the module",
	RunModule: runDeadexport,
}

// exportDecl is one exported declaration under internal/, with what
// the module's uses of it showed.
type exportDecl struct {
	pos        token.Position
	name       string // pkg.Name or pkg.Recv.Name, for messages
	method     string // the method's name; empty for package-level identifiers
	used, test bool   // used by a non-test file; used by a test file
}

func runDeadexport(units []*Unit, report func(token.Position, string)) {
	decls := make(map[string]*exportDecl)
	for _, u := range units {
		if !pathHasSegment(u.Pkg.Path(), "internal") {
			continue
		}
		for _, f := range u.Files {
			if isTestFile(u.Fset, f.Pos()) {
				continue
			}
			for _, id := range exportedDecls(f) {
				obj := u.TypesInfo.Defs[id]
				key := exportKey(obj)
				if key == "" {
					continue
				}
				d := &exportDecl{pos: u.Fset.Position(id.Pos()), name: u.Pkg.Name() + "." + strings.TrimPrefix(key, u.Pkg.Path()+".")}
				if fn, ok := obj.(*types.Func); ok && fn.Type().(*types.Signature).Recv() != nil {
					d.method = fn.Name()
				}
				decls[key] = d
			}
		}
	}

	ifaceMethods := make(map[string]bool)
	addIface := func(t types.Type) {
		if it, ok := t.Underlying().(*types.Interface); ok {
			for i := 0; i < it.NumMethods(); i++ {
				ifaceMethods[it.Method(i).Name()] = true
			}
		}
	}
	for _, u := range units {
		for _, tv := range u.TypesInfo.Types {
			if tv.Type != nil {
				addIface(tv.Type)
			}
		}
		for _, imp := range u.Pkg.Imports() {
			for _, name := range imp.Scope().Names() {
				if tn, ok := imp.Scope().Lookup(name).(*types.TypeName); ok {
					addIface(tn.Type())
				}
			}
		}
		for id, obj := range u.TypesInfo.Uses {
			d := decls[exportKey(obj)]
			if d == nil {
				continue
			}
			if isTestFile(u.Fset, id.Pos()) {
				d.test = true
			} else {
				d.used = true
			}
		}
	}

	for _, d := range decls { // RunUnits sorts what is reported
		if d.used || ifaceMethods[d.method] {
			continue
		}
		if d.test {
			report(d.pos, "exported "+d.name+" is used only by tests: delete it with the tests that check it, move it into an export_test.go, or allow it with the reason tests need it")
		} else {
			report(d.pos, "exported "+d.name+" is never used: delete it")
		}
	}
}

// exportedDecls returns the names of a file's exported top-level
// declarations: functions, methods, types, variables and constants.
func exportedDecls(f *ast.File) []*ast.Ident {
	var ids []*ast.Ident
	for _, decl := range f.Decls {
		switch decl := decl.(type) {
		case *ast.FuncDecl:
			ids = append(ids, decl.Name)
		case *ast.GenDecl:
			for _, spec := range decl.Specs {
				switch spec := spec.(type) {
				case *ast.TypeSpec:
					ids = append(ids, spec.Name)
				case *ast.ValueSpec:
					ids = append(ids, spec.Names...)
				}
			}
		}
	}
	exported := ids[:0]
	for _, id := range ids {
		if id.IsExported() {
			exported = append(exported, id)
		}
	}
	return exported
}

// exportKey names a package-level object or a method as
// "path.Name" or "path.Recv.Name", the same in every unit that sees
// it; any other object (a field, a local, an interface method) has
// no key.
func exportKey(obj types.Object) string {
	if obj == nil || obj.Pkg() == nil {
		return ""
	}
	prefix := obj.Pkg().Path() + "."
	fn, ok := obj.(*types.Func)
	if !ok {
		if obj.Parent() != obj.Pkg().Scope() {
			return ""
		}
		return prefix + obj.Name()
	}
	fn = fn.Origin()
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return prefix + fn.Name()
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || types.IsInterface(named) {
		return ""
	}
	return prefix + named.Origin().Obj().Name() + "." + fn.Name()
}
