// Command apicallers fails when the module holds exported API that only
// tests reach. It type-checks every non-test package of the module at the
// root and of every module nested under it (bench/), and reports two
// kinds of finding in the root module's packages:
//
//   - unused: an exported identifier, method or struct field that no
//     non-test code references. A use inside the declaration itself (a
//     method's receiver included), or inside another unused declaration
//     that is not listed, does not count. A method that lets its type satisfy an interface counts as
//     called: any interface the checked code or its imports declare or
//     spell out, the universe error, and the anonymous interfaces package
//     errors tests for (Unwrap, Is, As).
//   - never set: an exported struct field that non-test code reads but
//     never sets. Setting is a composite-literal key (or a positional
//     literal), an assignment, ++/--, &, or a pointer method called on
//     the field; a write through a field (x.F[i] = v, x.F.G = v) sets it.
//
// Every non-test package counts as a caller: cmd/, examples/,
// experiments/ and the bench module included. A finding that stays is
// listed in scripts/apicallers.txt with a reason; the stage fails on a
// finding that is not listed and on a listed one that no longer is.
//
// Run it from the repository root: go run ./scripts/apicallers
package main

import (
	"bufio"
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
	"sort"
	"strings"
)

const allowFile = "scripts/apicallers.txt"

// errorsProtocol spells out the anonymous interfaces errors.Is, errors.As
// and errors.Unwrap test an error for.
const errorsProtocol = `package errorsprotocol
type _ interface{ Unwrap() error }
type _ interface{ Unwrap() []error }
type _ interface{ Is(error) bool }
type _ interface{ As(any) bool }
`

func main() {
	problems, err := check(".", allowFile)
	if err != nil {
		fail(err)
	}
	if len(problems) > 0 {
		fail(fmt.Errorf("%s:\n  %s", allowFile, strings.Join(problems, "\n  ")))
	}
}

// check scans the module at root against the allowlist at allowPath and
// returns one line per unlisted finding and per stale entry.
func check(root, allowPath string) ([]string, error) {
	allow, err := readAllow(allowPath)
	if err != nil {
		return nil, err
	}
	// listed returns the allowlist key that covers f, or "".
	listed := func(f *finding) string {
		for _, key := range []string{f.key, f.pkg + ".*"} {
			if _, ok := allow[key]; ok {
				return key
			}
		}
		return ""
	}
	findings, err := scan(root, func(f *finding) bool { return listed(f) != "" })
	if err != nil {
		return nil, err
	}
	var problems []string
	matched := map[string]bool{}
	for i := range findings {
		f := &findings[i]
		if key := listed(f); key != "" {
			matched[key] = true
			continue
		}
		problems = append(problems, fmt.Sprintf("%s: %s: %s", f.pos, f.key, f.kind))
	}
	for key, line := range allow {
		if !matched[key] {
			problems = append(problems, fmt.Sprintf("stale entry %s (line %d): no such finding", key, line))
		}
	}
	sort.Strings(problems)
	return problems, nil
}

// readAllow parses "key reason" lines into each key's line number. Blank
// lines and lines starting with # are skipped; a key needs a reason.
func readAllow(path string) (map[string]int, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	allow := map[string]int{}
	sc := bufio.NewScanner(f)
	for ln := 1; sc.Scan(); ln++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return nil, fmt.Errorf("%s:%d: want \"key reason\", got %q", path, ln, line)
		}
		if _, dup := allow[fields[0]]; dup {
			return nil, fmt.Errorf("%s:%d: %s listed twice", path, ln, fields[0])
		}
		allow[fields[0]] = ln
	}
	return allow, sc.Err()
}

// finding is an exported declaration that only tests reach. Its key is
// pkg.Name or pkg.Type.Member, pkg being the package's directory relative
// to the root.
type finding struct {
	pkg, key, kind, pos string
}

// pkg is one non-test package.
type pkg struct {
	dir, path string
	rootMod   bool // in the module at the scan root, not a nested one
	files     []*ast.File
	types     *types.Package
}

// importerFunc adapts a function to types.ImporterFrom.
type importerFunc func(path, dir string, mode types.ImportMode) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path, "", 0) }

func (f importerFunc) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	return f(path, dir, mode)
}

// scan type-checks every package under root, the scanned ones importing
// one another by path and the standard library from source, and returns
// the root module's findings. A finding that kept reports true for stays
// a finding, but what it uses counts as used.
func scan(root string, kept func(*finding) bool) ([]finding, error) {
	build.Default.CgoEnabled = false // a pure-Go standard library needs no C toolchain
	fset := token.NewFileSet()
	pkgs, err := parseTree(fset, root)
	if err != nil {
		return nil, err
	}
	byPath := map[string]*pkg{}
	for _, p := range pkgs {
		byPath[p.path] = p
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	std := importer.ForCompiler(fset, "source", nil).(types.ImporterFrom)
	var imp importerFunc
	imp = func(path, dir string, mode types.ImportMode) (*types.Package, error) {
		p, ok := byPath[path]
		if !ok {
			return std.ImportFrom(path, dir, mode)
		}
		if p.types == nil {
			conf := types.Config{Importer: imp}
			if p.types, err = conf.Check(path, fset, p.files, info); err != nil {
				return nil, err
			}
		}
		return p.types, nil
	}
	for _, p := range pkgs {
		if _, err := imp(p.path, p.dir, 0); err != nil {
			return nil, err
		}
	}
	proto, err := parser.ParseFile(fset, "errorsprotocol.go", errorsProtocol, 0)
	if err != nil {
		return nil, err
	}
	if _, err := (&types.Config{}).Check("errorsprotocol", fset, []*ast.File{proto}, info); err != nil {
		return nil, err
	}
	a := &analysis{fset: fset, info: info, root: root, cands: map[types.Object]*finding{},
		set: map[types.Object]bool{}, setIdents: map[*ast.Ident]bool{}, ifaces: map[string][]*types.Interface{}}
	for _, p := range pkgs {
		if p.rootMod {
			a.addCandidates(p)
		}
	}
	a.indexInterfaces(pkgs)
	for _, p := range pkgs {
		for _, f := range p.files {
			a.walk(f)
		}
	}
	return a.findings(kept), nil
}

// parseTree parses the non-test Go files the default build context
// selects, one package per directory, each with its import path: a
// directory holding go.mod starts a (nested) module. Hidden directories
// and testdata are skipped.
func parseTree(fset *token.FileSet, root string) ([]*pkg, error) {
	mods := map[string]string{} // module directory -> module path
	var pkgs []*pkg
	err := filepath.WalkDir(root, func(dir string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if dir != root && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
			return filepath.SkipDir
		}
		if src, err := os.ReadFile(filepath.Join(dir, "go.mod")); err == nil {
			for _, line := range strings.Split(string(src), "\n") {
				if f := strings.Fields(line); len(f) == 2 && f[0] == "module" {
					mods[dir] = f[1]
				}
			}
		}
		if _, ok := mods[root]; !ok {
			return fmt.Errorf("%s: no go.mod with a module line", root)
		}
		entries, err := os.ReadDir(dir)
		if err != nil {
			return err
		}
		p := &pkg{dir: dir}
		for _, e := range entries {
			name := e.Name()
			if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
				continue
			}
			ok, err := build.Default.MatchFile(dir, name)
			if err != nil {
				return err
			}
			if !ok {
				continue
			}
			f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			p.files = append(p.files, f)
		}
		if len(p.files) == 0 {
			return nil
		}
		modDir := dir
		for mods[modDir] == "" {
			modDir = filepath.Dir(modDir)
		}
		rel, err := filepath.Rel(modDir, dir)
		if err != nil {
			return err
		}
		p.path, p.rootMod = mods[modDir], modDir == root
		if rel != "." {
			p.path += "/" + filepath.ToSlash(rel)
		}
		pkgs = append(pkgs, p)
		return nil
	})
	return pkgs, err
}

// analysis holds what the findings are computed from: the candidates,
// every non-test use of one with the declaration it sits in, the fields
// some non-test code sets, and the interfaces a method may satisfy.
type analysis struct {
	fset *token.FileSet
	info *types.Info
	root string
	// cands maps each exported declaration of the root module to its
	// finding, kind unset.
	cands map[types.Object]*finding
	uses  []use
	set   map[types.Object]bool
	// setIdents are the field uses that set the field, not read it.
	setIdents map[*ast.Ident]bool
	ifaces    map[string][]*types.Interface // by method name
}

// use is one reference to a candidate, inside the function or method
// declaration owner (nil at package level).
type use struct {
	id         *ast.Ident
	obj, owner types.Object
}

// addCandidates records a package's exported package-level objects and
// the exported methods and fields of every named type it declares.
func (a *analysis) addCandidates(p *pkg) {
	dir, _ := filepath.Rel(a.root, p.dir)
	dir = filepath.ToSlash(dir)
	add := func(obj types.Object, key string) {
		a.cands[obj] = &finding{pkg: dir, key: dir + "." + key, pos: a.pos(obj.Pos())}
	}
	scope := p.types.Scope()
	for _, name := range scope.Names() {
		obj := scope.Lookup(name)
		if obj.Exported() {
			add(obj, name)
		}
		tn, ok := obj.(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		named := tn.Type().(*types.Named)
		for i := 0; i < named.NumMethods(); i++ {
			if m := named.Method(i); m.Exported() {
				add(m, name+"."+m.Name())
			}
		}
		if st, ok := named.Underlying().(*types.Struct); ok {
			for i := 0; i < st.NumFields(); i++ {
				if f := st.Field(i); f.Exported() && !f.Embedded() {
					add(f, name+"."+f.Name())
				}
			}
		}
	}
}

// indexInterfaces indexes by method name every interface the checked
// code spells out (the errors protocol included), every interface type
// declared by a checked package or anything it imports, and error.
func (a *analysis) indexInterfaces(pkgs []*pkg) {
	seen := map[*types.Interface]bool{}
	add := func(t types.Type) {
		it, ok := t.Underlying().(*types.Interface)
		if !ok || seen[it] {
			return
		}
		seen[it] = true
		for i := 0; i < it.NumMethods(); i++ {
			name := it.Method(i).Name()
			a.ifaces[name] = append(a.ifaces[name], it)
		}
	}
	add(types.Universe.Lookup("error").Type())
	for _, tv := range a.info.Types {
		if tv.Type != nil {
			add(tv.Type)
		}
	}
	visited := map[*types.Package]bool{}
	var visit func(*types.Package)
	visit = func(p *types.Package) {
		if visited[p] {
			return
		}
		visited[p] = true
		for _, name := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok {
				add(tn.Type())
			}
		}
		for _, imp := range p.Imports() {
			visit(imp)
		}
	}
	for _, p := range pkgs {
		visit(p.types)
	}
}

// walk records one file's uses of candidates and the fields it sets.
func (a *analysis) walk(f *ast.File) {
	for _, decl := range f.Decls {
		var owner types.Object
		var recv ast.Node // a method's receiver does not use its type
		if fd, ok := decl.(*ast.FuncDecl); ok {
			owner = a.info.Defs[fd.Name]
			if fd.Recv != nil {
				recv = fd.Recv
			}
		}
		ast.Inspect(decl, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FieldList:
				return n != recv
			case *ast.Ident:
				if obj := origin(a.info.Uses[n]); a.cands[obj] != nil {
					a.uses = append(a.uses, use{id: n, obj: obj, owner: owner})
				}
			case *ast.CompositeLit:
				a.literalSets(n)
			case *ast.AssignStmt:
				if n.Tok != token.DEFINE {
					for _, lhs := range n.Lhs {
						a.setChain(lhs)
					}
				}
			case *ast.IncDecStmt:
				a.setChain(n.X)
			case *ast.UnaryExpr:
				if n.Op == token.AND {
					a.setChain(n.X)
				}
			case *ast.SelectorExpr:
				// A pointer method called on an addressable value takes
				// its address.
				if sel := a.info.Selections[n]; sel != nil && sel.Kind() == types.MethodVal {
					_, ptrRecv := sel.Obj().Type().(*types.Signature).Recv().Type().(*types.Pointer)
					if _, ptrX := a.info.Types[n.X].Type.(*types.Pointer); ptrRecv && !ptrX {
						a.setChain(n.X)
					}
				}
			}
			return true
		})
	}
}

// literalSets marks the fields a struct literal sets: its keys, or every
// field of a positional literal.
func (a *analysis) literalSets(lit *ast.CompositeLit) {
	t := a.info.Types[lit].Type
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	st, ok := t.Underlying().(*types.Struct)
	if !ok {
		return
	}
	for _, elt := range lit.Elts {
		kv, ok := elt.(*ast.KeyValueExpr)
		if !ok {
			for i := 0; i < st.NumFields(); i++ {
				a.set[origin(st.Field(i))] = true
			}
			return
		}
		if id, ok := kv.Key.(*ast.Ident); ok {
			a.setIdents[id] = true
			a.set[origin(a.info.Uses[id])] = true
		}
	}
}

// setChain marks every field selected on the way to an assigned
// expression: x.F.G[i] = v sets G and F.
func (a *analysis) setChain(e ast.Expr) {
	for {
		switch x := e.(type) {
		case *ast.SelectorExpr:
			if sel := a.info.Selections[x]; sel != nil && sel.Kind() == types.FieldVal {
				a.setIdents[x.Sel] = true
				a.set[origin(sel.Obj())] = true
			}
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return
		}
	}
}

// findings grows the unused set to a fixed point — a use inside an
// unused declaration stops counting once that declaration is found,
// unless kept — and then adds the fields read but never set.
func (a *analysis) findings(kept func(*finding) bool) []finding {
	unused := map[types.Object]bool{}
	dead := map[types.Object]bool{} // unused and not kept
	for grew := true; grew; {
		used := map[types.Object]bool{}
		for _, u := range a.uses {
			if u.owner != u.obj && !dead[u.owner] {
				used[u.obj] = true
			}
		}
		grew = false
		for obj, f := range a.cands {
			if !used[obj] && !unused[obj] && !a.set[obj] && !a.satisfies(obj) {
				unused[obj], dead[obj], grew = true, !kept(f), true
			}
		}
	}
	read := map[types.Object]bool{}
	for _, u := range a.uses {
		if !a.setIdents[u.id] && !dead[u.owner] {
			read[u.obj] = true
		}
	}
	var out []finding
	for obj, f := range a.cands {
		v, isVar := obj.(*types.Var)
		switch {
		case unused[obj]:
			f.kind = "exported, no non-test caller"
		case isVar && v.IsField() && read[obj] && !a.set[obj]:
			f.kind = "field read, never set outside tests"
		default:
			continue
		}
		out = append(out, *f)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].key < out[j].key })
	return out
}

// satisfies reports whether obj is a method that lets its (non-generic)
// type satisfy an indexed interface.
func (a *analysis) satisfies(obj types.Object) bool {
	fn, ok := obj.(*types.Func)
	if !ok || fn.Type().(*types.Signature).Recv() == nil {
		return false
	}
	t := fn.Type().(*types.Signature).Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.TypeParams().Len() > 0 {
		return false
	}
	for _, it := range a.ifaces[fn.Name()] {
		if types.Implements(named, it) || types.Implements(types.NewPointer(named), it) {
			return true
		}
	}
	return false
}

// origin maps a use of an instantiated generic's method or field to the
// declared one.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

func (a *analysis) pos(p token.Pos) string {
	pos := a.fset.Position(p)
	if rel, err := filepath.Rel(a.root, pos.Filename); err == nil {
		pos.Filename = filepath.ToSlash(rel)
	}
	return fmt.Sprintf("%s:%d", pos.Filename, pos.Line)
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "apicallers:", err)
	os.Exit(1)
}
