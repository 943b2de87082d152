// Command surface is the CI check on the module's exported surface: it lists
// every exported name of the module that no non-test file outside its own
// package uses, and fails unless each one has a reason in its table
// (table.go) and each table entry still covers a listed name. Run it from the
// module root:
//
//	go run ./tools/surface
//
// A name is a package-level const, var, type or func, an exported method of a
// named non-interface type, or an exported, non-embedded field of a named
// struct type, declared in a non-main package; a listed type stands for its
// methods and fields. Uses are the go/types uses of the module's non-test
// files, main packages included. Two kinds of use name nothing, so the check
// counts them by rule:
//   - a type whose values (or pointers to them) another package holds is used;
//   - a method that implements a method of error, fmt.Stringer or an
//     interface type the module's code spells is reached through it.
//
// Packages of the module are type-checked from source with go/parser and
// go/types; everything else comes from the "source" importer. Nested modules
// (a directory with its own go.mod, such as bench/) are not part of the
// module: a name only they use is listed, and its table entry says so.
package main

import (
	"errors"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strings"
)

// pkg is one type-checked package of the module.
type pkg struct {
	rel   string // import path relative to the module, e.g. "internal/core"
	types *types.Package
	info  *types.Info
}

// loader type-checks the module's packages from source, each once, and
// resolves every other import through the source importer.
type loader struct {
	fset   *token.FileSet
	root   string // module root directory
	module string // module path
	std    types.Importer
	pkgs   map[string]*pkg // by module-relative directory
}

// Import implements types.Importer.
func (l *loader) Import(path string) (*types.Package, error) {
	if path != l.module && !strings.HasPrefix(path, l.module+"/") {
		return l.std.Import(path)
	}
	p, err := l.load(strings.TrimPrefix(strings.TrimPrefix(path, l.module), "/"))
	if err != nil {
		return nil, err
	}
	return p.types, nil
}

// load type-checks the non-test files of the module package in directory rel.
func (l *loader) load(rel string) (*pkg, error) {
	if p, ok := l.pkgs[rel]; ok {
		return p, nil
	}
	dir := filepath.Join(l.root, filepath.FromSlash(rel))
	bp, err := build.Default.ImportDir(dir, 0)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{Uses: map[*ast.Ident]types.Object{}, Types: map[ast.Expr]types.TypeAndValue{}}
	tp, err := (&types.Config{Importer: l}).Check(strings.TrimSuffix(l.module+"/"+rel, "/"), l.fset, files, info)
	if err != nil {
		return nil, err
	}
	p := &pkg{rel: rel, types: tp, info: info}
	l.pkgs[rel] = p
	return p, nil
}

// loadModule type-checks every package of the module rooted at root, skipping
// testdata, hidden and underscore directories and nested modules.
func loadModule(root string) ([]*pkg, error) {
	mod, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	l := &loader{fset: token.NewFileSet(), root: root, pkgs: map[string]*pkg{}}
	l.std = importer.ForCompiler(l.fset, "source", nil)
	for _, line := range strings.Split(string(mod), "\n") {
		if f := strings.Fields(line); len(f) == 2 && f[0] == "module" {
			l.module = strings.Trim(f[1], `"`)
		}
	}
	if l.module == "" {
		return nil, fmt.Errorf("%s/go.mod names no module", root)
	}
	var pkgs []*pkg
	err = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if p != root {
			if name := d.Name(); name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(p, "go.mod")); err == nil {
				return filepath.SkipDir
			}
		}
		rel, err := filepath.Rel(root, p)
		if err != nil {
			return err
		}
		pk, err := l.load(strings.TrimPrefix(filepath.ToSlash(rel), "."))
		var nogo *build.NoGoError
		if errors.As(err, &nogo) {
			return nil // no non-test Go files, or all excluded by build constraints
		}
		if err == nil {
			pkgs = append(pkgs, pk)
		}
		return err
	})
	return pkgs, err
}

// unreferenced loads the module at root and returns, sorted, the names of
// its exported identifiers that no non-test file outside their own package
// uses, as "rel.Name", "rel.Type.Method" or "rel.Type.Field".
func unreferenced(root string) ([]string, error) {
	pkgs, err := loadModule(root)
	if err != nil {
		return nil, err
	}
	used := map[types.Object]bool{}
	ifaces := []*types.Interface{types.Universe.Lookup("error").Type().Underlying().(*types.Interface)}
	addIface := func(t types.Type) {
		if it, ok := t.Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
			ifaces = append(ifaces, it)
		}
	}
	for _, p := range pkgs {
		for _, obj := range p.info.Uses {
			switch o := obj.(type) {
			case *types.Func:
				obj = o.Origin()
			case *types.Var:
				obj = o.Origin()
			}
			if obj.Pkg() != nil && obj.Pkg() != p.types {
				used[obj] = true
			}
		}
		for _, tv := range p.info.Types {
			if tv.Type == nil {
				continue
			}
			addIface(tv.Type)
			t := tv.Type
			if ptr, ok := t.(*types.Pointer); ok {
				t = ptr.Elem()
			}
			if named, ok := t.(*types.Named); ok && named.Obj().Pkg() != p.types {
				used[named.Origin().Obj()] = true
			}
		}
		for _, imp := range p.types.Imports() {
			if imp.Path() == "fmt" {
				addIface(imp.Scope().Lookup("Stringer").Type())
			}
		}
	}

	var names []string
	note := func(obj types.Object, name string) (listed bool) {
		if !used[obj] {
			names = append(names, name)
		}
		return !used[obj]
	}
	for _, p := range pkgs {
		if p.types.Name() == "main" {
			continue
		}
		scope := p.types.Scope()
		for _, n := range scope.Names() {
			obj := scope.Lookup(n)
			if !obj.Exported() {
				continue
			}
			name := p.rel + "." + n
			if note(obj, name) {
				continue // a listed type stands for its members
			}
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok || types.IsInterface(named) {
				continue
			}
			for i := 0; i < named.NumMethods(); i++ {
				if m := named.Method(i); m.Exported() && !implementsSome(named, m.Name(), ifaces) {
					note(m, name+"."+m.Name())
				}
			}
			if st, ok := named.Underlying().(*types.Struct); ok {
				for i := 0; i < st.NumFields(); i++ {
					if f := st.Field(i); f.Exported() && !f.Embedded() {
						note(f, name+"."+f.Name())
					}
				}
			}
		}
	}
	slices.Sort(names)
	return names, nil
}

// implementsSome reports whether T or *T implements an interface among
// ifaces that has a method called name.
func implementsSome(named *types.Named, name string, ifaces []*types.Interface) bool {
	ptr := types.NewPointer(named)
	for _, it := range ifaces {
		for i := 0; i < it.NumMethods(); i++ {
			if it.Method(i).Name() == name && (types.Implements(named, it) || types.Implements(ptr, it)) {
				return true
			}
		}
	}
	return false
}

// covering returns the table entry that covers a listed name: the name's own
// entry, or the "X.*" entry of the nearest enclosing X (X itself included).
func covering(name string, table map[string]string) (key string, ok bool) {
	if _, ok := table[name]; ok {
		return name, true
	}
	for x := name; ; x = x[:strings.LastIndexByte(x, '.')] {
		if _, ok := table[x+".*"]; ok {
			return x + ".*", true
		}
		if !strings.Contains(x, ".") {
			return "", false
		}
	}
}

// check compares the listed names with the table: every listed name needs a
// reason, and every table entry must still cover a listed name.
func check(listed []string, table map[string]string) error {
	var missing, stale []string
	covers := map[string]bool{}
	for _, n := range listed {
		if key, ok := covering(n, table); ok {
			covers[key] = true
		} else {
			missing = append(missing, n)
		}
	}
	for key := range table {
		if !covers[key] {
			stale = append(stale, key)
		}
	}
	slices.Sort(stale)
	var msg []string
	if len(missing) > 0 {
		msg = append(msg, fmt.Sprintf("%d without a reason in tools/surface/table.go (add a caller, delete the name, or give the reason it stays):\n\t%s", len(missing), strings.Join(missing, "\n\t")))
	}
	if len(stale) > 0 {
		msg = append(msg, fmt.Sprintf("%d table entries cover no listed name (a caller appeared or the name is gone; drop the entry):\n\t%s", len(stale), strings.Join(stale, "\n\t")))
	}
	if len(msg) > 0 {
		return errors.New(strings.Join(msg, "\n"))
	}
	return nil
}

func main() {
	listed, err := unreferenced(".")
	if err == nil {
		err = check(listed, table)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "surface:", err)
		os.Exit(1)
	}
	fmt.Printf("surface: %d exported names without a non-test caller outside their package, %d table entries\n", len(listed), len(table))
}
