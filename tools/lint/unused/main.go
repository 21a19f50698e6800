// Command unused reports the functions and methods no non-test file
// references and the struct fields only tests write, against
// ci/unused.allowlist. From the repository root, go run ./tools/lint/unused;
// DESIGN.md gives the rules.
package main

import (
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
	"slices"
	"strings"
)

func main() { os.Exit(load(os.Stdout, ".", "perfbench").report(os.Stdout, "ci/unused.allowlist")) }

type checker struct {
	fset    *token.FileSet
	std     types.Importer
	pkgs    map[string]*types.Package // by go list ImportPath: test variants and the standard library too
	own     map[string]*types.Package // the root module's non-test packages
	files   map[string]*ast.File      // parsed once, so every variant shares its objects' positions
	root    string                    // the module's directory
	rootPkg string                    // the package in it
	used    map[bool]map[token.Pos]bool
	written map[bool]map[token.Pos]bool // by tests (true) and by non-test code (false)
	funcs   []*types.Func               // the modules' functions and methods
	ifaces  []*types.Interface          // interfaces declared in non-test files
	errs    []string
	imports map[string]string // the ImportMap of the package being checked
}

// load type-checks the module at root with its test builds, and the
// modules in callers as callers only.
func load(w io.Writer, root string, callers ...string) *checker {
	fset := token.NewFileSet()
	c := &checker{fset: fset, std: importer.ForCompiler(fset, "source", nil), pkgs: map[string]*types.Package{},
		own: map[string]*types.Package{}, files: map[string]*ast.File{},
		used: map[bool]map[token.Pos]bool{false: {}, true: {}}, written: map[bool]map[token.Pos]bool{false: {}, true: {}}}
	c.root, _ = filepath.Abs(root)
	for i, dir := range append([]string{"."}, callers...) {
		// -test lists a package a test build recompiles again, as "path [pkg.test]".
		cmd := exec.Command("go", "list", "-deps", "-test="+fmt.Sprint(i == 0), "-json=Dir,ImportPath,Standard,GoFiles,ImportMap", "./...")
		cmd.Dir, cmd.Stderr = filepath.Join(c.root, dir), w
		out, err := cmd.Output()
		for dec := json.NewDecoder(strings.NewReader(string(out))); err == nil && dec.More(); {
			var p struct {
				Dir, ImportPath string
				Standard        bool
				GoFiles         []string
				ImportMap       map[string]string
			}
			err = dec.Decode(&p)
			path, _, variant := strings.Cut(p.ImportPath, " ")
			if err != nil || p.Standard || c.pkgs[p.ImportPath] != nil || strings.HasSuffix(path, ".test") {
				continue
			}
			c.pkgs[p.ImportPath] = c.check(path, p.Dir, p.GoFiles, p.ImportMap)
			if i == 0 && !variant && !strings.HasSuffix(path, "_test") {
				if c.own[path] = c.pkgs[path]; p.Dir == c.root {
					c.rootPkg = path
				}
			}
		}
		if err != nil {
			c.errs = append(c.errs, "unused: "+err.Error())
		}
	}
	return c
}

// check type-checks a package's files and scans those it parses first.
func (c *checker) check(path, dir string, names []string, importMap map[string]string) *types.Package {
	var files, fresh []*ast.File
	for _, name := range names {
		if name = filepath.Join(dir, name); c.files[name] == nil {
			f, err := parser.ParseFile(c.fset, name, nil, parser.SkipObjectResolution)
			if c.files[name], fresh = f, append(fresh, f); err != nil {
				c.errs = append(c.errs, err.Error())
			}
		}
		files = append(files, c.files[name])
	}
	c.imports = importMap
	info := &types.Info{Types: map[ast.Expr]types.TypeAndValue{}, Defs: map[*ast.Ident]types.Object{},
		Uses: map[*ast.Ident]types.Object{}, Selections: map[*ast.SelectorExpr]*types.Selection{}}
	conf := types.Config{Importer: c, Error: func(err error) { c.errs = append(c.errs, err.Error()) }}
	pkg, _ := conf.Check(path, c.fset, files, info) // errors go to c.errs
	for _, f := range fresh {
		c.scan(f, dir, strings.HasSuffix(c.fset.File(f.Pos()).Name(), "_test.go"), info)
	}
	return pkg
}

// Import resolves path through c.imports to a checked or standard package.
func (c *checker) Import(path string) (pkg *types.Package, err error) {
	if id, ok := c.imports[path]; ok {
		path = id
	}
	if c.pkgs[path] == nil {
		c.pkgs[path], err = c.std.Import(path)
	}
	return c.pkgs[path], err
}

// scan records a file's functions, references, field writes and interfaces;
// no self-reference, nor a test's reference into its own directory, counts.
func (c *checker) scan(f *ast.File, dir string, test bool, info *types.Info) {
	mark := func(v *types.Var) { c.written[test][v.Pos()] = true }
	for _, d := range f.Decls {
		self := token.NoPos
		if fd, ok := d.(*ast.FuncDecl); ok && !test {
			if f, ok := info.Defs[fd.Name].(*types.Func); ok && f.Name() != "_" {
				self, c.funcs = f.Pos(), append(c.funcs, f)
			}
		}
		ast.Inspect(d, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.Ident: // an instance's position is its generic origin's
				if obj := info.Uses[n]; obj != nil && obj.Pos() != self && (!test || filepath.Dir(c.fset.Position(obj.Pos()).Filename) != dir) {
					c.used[test][obj.Pos()] = true
				}
			case *ast.InterfaceType:
				if it, ok := info.Types[n].Type.(*types.Interface); ok && !test {
					c.ifaces = append(c.ifaces, it)
				}
			case *ast.AssignStmt:
				for _, e := range n.Lhs {
					chain(e, info, mark)
				}
			case *ast.IncDecStmt:
				chain(n.X, info, mark)
			case *ast.UnaryExpr:
				if n.Op == token.AND {
					chain(n.X, info, mark)
				}
			case *ast.KeyValueExpr: // a struct literal's key is its field
				if v, ok := info.Uses[ident(n.Key)].(*types.Var); ok && v.IsField() {
					mark(v)
				}
			case *ast.CompositeLit: // positional or empty, it writes every field
				st, ok := deref(info.Types[n].Type).Underlying().(*types.Struct)
				for i := 0; ok && (len(n.Elts) == 0 || !isKV(n.Elts[0])) && i < st.NumFields(); i++ {
					mark(st.Field(i))
				}
			case *ast.CallExpr: // json.Unmarshal or (*json.Decoder).Decode
				if sel, ok := n.Fun.(*ast.SelectorExpr); ok && len(n.Args) > 0 {
					if f, _ := info.Uses[sel.Sel].(*types.Func); f != nil && (f.FullName() == "encoding/json.Unmarshal" || f.FullName() == "(*encoding/json.Decoder).Decode") {
						decoded(info.Types[n.Args[len(n.Args)-1]].Type, mark, map[types.Type]bool{})
					}
				}
			}
			return true
		})
	}
}

func ident(e ast.Expr) *ast.Ident { id, _ := e.(*ast.Ident); return id }
func isKV(e ast.Expr) bool        { _, ok := e.(*ast.KeyValueExpr); return ok }

// chain marks the fields a write to e writes: each one e selects, through
// index expressions and embedded fields too, outside calls and literals.
func chain(e ast.Expr, info *types.Info, mark func(*types.Var)) {
	ast.Inspect(e, func(n ast.Node) bool {
		sel, _ := n.(*ast.SelectorExpr)
		if s := info.Selections[sel]; s != nil && s.Kind() == types.FieldVal {
			t := s.Recv()
			for _, i := range s.Index() {
				f := deref(t).Underlying().(*types.Struct).Field(i)
				mark(f)
				t = f.Type()
			}
		}
		switch n.(type) {
		case *ast.CallExpr, *ast.CompositeLit, *ast.FuncLit:
			return false
		}
		return true
	})
}

// decoded marks every struct field a JSON decode into t can set.
func decoded(t types.Type, mark func(*types.Var), seen map[types.Type]bool) {
	if seen[t] {
		return
	}
	seen[t] = true
	if u, ok := t.Underlying().(interface{ Elem() types.Type }); ok { // pointer, slice, array, map
		decoded(u.Elem(), mark, seen)
	} else if st, ok := t.Underlying().(*types.Struct); ok {
		for i := range st.NumFields() {
			mark(st.Field(i))
			decoded(st.Field(i).Type(), mark, seen)
		}
	}
}

func deref(t types.Type) types.Type {
	if p, ok := t.Underlying().(*types.Pointer); ok {
		return p.Elem()
	}
	return t
}

// report applies the rules and prints, sorted, each finding the allowlist
// does not cover and each entry that covers none; it returns the exit code.
func (c *checker) report(w io.Writer, allowlist string) int {
	if len(c.errs) > 0 {
		fmt.Fprintln(w, strings.Join(c.errs, "\n"))
		return 1
	}
	found := map[string]token.Pos{} // by "kind pkgpath.Name" or "kind pkgpath.Type.Name"
	declared := slices.Clip(c.ifaces)
	for path, p := range c.pkgs {
		for _, name := range p.Scope().Names() {
			tn, ok := p.Scope().Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() || strings.Contains(path, " ") || strings.HasSuffix(path, "_test") {
				continue
			} else if it, ok := tn.Type().Underlying().(*types.Interface); ok && c.own[path] == nil {
				declared = append(declared, it) // an imported package's
			} else if st, ok := tn.Type().Underlying().(*types.Struct); ok && c.own[path] != nil {
				for i := range st.NumFields() {
					if f := st.Field(i); c.written[true][f.Pos()] && !c.written[false][f.Pos()] {
						found["field "+path+"."+name+"."+f.Name()] = f.Pos()
					}
				}
			}
		}
	}
	ifaces := map[string][]*types.Interface{} // by method name
	for _, it := range append(declared, types.Universe.Lookup("error").Type().Underlying().(*types.Interface)) {
		for i := range it.NumMethods() {
			ifaces[it.Method(i).Name()] = append(ifaces[it.Method(i).Name()], it)
		}
	}
	for _, f := range c.funcs {
		pkg, recv := f.Pkg().Path(), f.Type().(*types.Signature).Recv()
		switch {
		case c.own[pkg] == nil || c.used[false][f.Pos()] || c.used[true][f.Pos()] || pkg == c.rootPkg && f.Exported():
		case recv == nil && f.Name() != "main" && f.Name() != "init":
			found["func "+pkg+"."+f.Name()] = f.Pos()
		case recv != nil && !slices.ContainsFunc(ifaces[f.Name()], func(it *types.Interface) bool {
			return types.Implements(recv.Type(), it) || types.Implements(types.NewPointer(deref(recv.Type())), it)
		}):
			found["method "+pkg+"."+deref(recv.Type()).(*types.Named).Obj().Name()+"."+f.Name()] = f.Pos()
		}
	}

	data, err := os.ReadFile(allowlist)
	bad, covers, entries := 0, map[string]int{}, []string{} // entry → findings it covers
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) > 0 && f[0][0] != '#' {
			if covers[f[0]], entries = 0, append(entries, f[0]); len(f) == 1 {
				err = fmt.Errorf("%s: entry %s gives no reason", allowlist, f[0])
			}
		}
	}
	if err != nil {
		fmt.Fprintf(w, "unused: %v\n", err)
		return 1
	}
	keys := make([]string, 0, len(found))
	for key := range found {
		keys = append(keys, key)
	}
	slices.Sort(keys)
	for _, key := range keys {
		_, e, _ := strings.Cut(key, " ")
		for _, ok := covers[e]; !ok && e != ""; _, ok = covers[e] {
			e = e[:max(strings.LastIndex(e, "."), 0)] // the type's name, then the package's
		}
		if e != "" {
			covers[e]++
			continue
		}
		pos := c.fset.Position(found[key])
		rel, _ := filepath.Rel(c.root, pos.Filename)
		fmt.Fprintf(w, "%s:%d: %s\n", filepath.ToSlash(rel), pos.Line, key)
		bad++
	}
	for _, e := range entries {
		if covers[e] == 0 {
			fmt.Fprintf(w, "%s: stale entry %s: it covers no finding\n", allowlist, e)
			bad++
		}
	}
	return min(bad, 1)
}
