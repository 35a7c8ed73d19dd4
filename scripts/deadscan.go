//go:build ignore

// deadscan lists the exported names and struct fields a module declares
// outside its tests that no non-test code uses:
//
//	go run scripts/deadscan.go DIR
//
// DIR is the module root, the directory holding go.mod. Every package
// under it is type-checked from source, for the host's GOOS and GOARCH,
// once from its non-test files and once more with its in-package and
// external test files. Each program under DIR/scripts and the perfbench
// module under DIR/perfbench are checked against the module's non-test
// packages, and the standard library is checked from source. A use is an
// identifier that resolves to a declared name. Names are keyed by
// declaration position, so a package checked with its tests shares its
// keys with the same package checked without them.
//
// A name is listed when no non-test code of the module or its scripts
// uses it, with its uses from tests and from perfbench, one line each:
//
//	POSITION  KIND  PACKAGE.NAME  test=N perfbench=N  [INTERFACES]
//
// A field is used where it is read; one that non-test code only writes,
// by assignment or in a composite literal, is listed too, with set=N
// for those writes. Each line is under the first of these headings that
// applies:
//
//   - interface: a method that satisfies an interface the checked code,
//     tests included, declares or uses, so it may be called through it;
//     the line names up to three such interfaces.
//   - tagged: a struct field with a tag, which reflection (encoding/json)
//     reads.
//   - write-only: a field non-test code writes but never reads.
//   - api: a name of the module's root package, its public API.
//   - perfbench: used by perfbench.
//   - tests: used by tests only.
//   - unused: used nowhere.
//
// Reflection is not seen: a field only encoding/json reads is listed as
// unused. Neither is the standard library's own code, so the interfaces
// the errors package asserts for inside it (Unwrap, Is, As) are
// registered by hand. A deletion can leave another name without a
// caller, so run it again after each deletion.
package main

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Where a use is; uses in a package checked as noCount are not counted.
const (
	nonTest = iota
	inTest
	inPerfbench
	noCount
)

type decl struct {
	pos        token.Position
	kind, name string
	method     *types.Func // a method of a concrete type, else nil
	tagged     bool        // a struct field with a tag
	root       bool        // declared in the module's root package
	uses       [3]int      // reads, by where they are
	sets       [3]int      // a field's writes, by where they are
}

type scanner struct {
	fset     *token.FileSet
	std      types.Importer
	modules  map[string]string // module path -> directory
	rootMod  string
	benchMod string // the perfbench module's path, or ""
	parsed   map[string]*ast.File
	pkgs     map[string]*types.Package // non-test packages by import path
	decls    map[string]*decl          // by declaration position
	ifaces   map[*types.Interface]string
}

func main() {
	if len(os.Args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: go run scripts/deadscan.go DIR")
		os.Exit(2)
	}
	root, err := filepath.Abs(os.Args[1])
	if err != nil {
		fail(err)
	}
	// The scan needs the standard library's interfaces, not its cgo
	// paths, which the source importer could only check by running cgo.
	build.Default.CgoEnabled = false
	s := &scanner{
		fset:    token.NewFileSet(),
		modules: map[string]string{},
		parsed:  map[string]*ast.File{},
		pkgs:    map[string]*types.Package{},
		decls:   map[string]*decl{},
		ifaces:  map[*types.Interface]string{},
	}
	s.std = importer.ForCompiler(s.fset, "source", nil)
	s.addErrorsInterfaces()
	s.rootMod = modulePath(root)
	s.modules[s.rootMod] = root
	bench := filepath.Join(root, "perfbench")
	if _, err := os.Stat(filepath.Join(bench, "go.mod")); err == nil {
		s.benchMod = modulePath(bench)
		s.modules[s.benchMod] = bench
	}

	dirs := packageDirs(root)
	for _, dir := range dirs {
		if _, err := s.load(s.importPath(dir)); err != nil {
			fail(err)
		}
	}
	for _, dir := range dirs {
		if err := s.checkTests(dir); err != nil {
			fail(err)
		}
	}
	scripts, _ := filepath.Glob(filepath.Join(root, "scripts", "*.go"))
	for _, f := range scripts {
		if _, err := s.check("main", []string{f}, nonTest, s); err != nil {
			fail(err)
		}
	}
	s.report(root)
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "deadscan:", err)
	os.Exit(1)
}

// modulePath reads the module line of dir/go.mod.
func modulePath(dir string) string {
	data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
	if err != nil {
		fail(err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) == 2 && f[0] == "module" {
			return f[1]
		}
	}
	fail(fmt.Errorf("%s has no module line", filepath.Join(dir, "go.mod")))
	return ""
}

// packageDirs lists every directory under root holding a package for
// this platform, the perfbench module's included and the scripts, each
// its own program, left out.
func packageDirs(root string) []string {
	var dirs []string
	filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		name := d.Name()
		if path != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") ||
			name == "testdata" || path == filepath.Join(root, "scripts")) {
			return filepath.SkipDir
		}
		if _, err := build.Default.ImportDir(path, 0); err == nil {
			dirs = append(dirs, path)
		}
		return nil
	})
	return dirs
}

// importPath maps a directory to its import path in the innermost
// module holding it.
func (s *scanner) importPath(dir string) string {
	path, modDir := "", ""
	for mod, mdir := range s.modules {
		rel, err := filepath.Rel(mdir, dir)
		if err == nil && !strings.HasPrefix(rel, "..") && len(mdir) > len(modDir) {
			path, modDir = filepath.ToSlash(filepath.Join(mod, rel)), mdir
		}
	}
	return path
}

// dirOf maps an import path to its directory in the innermost scanned
// module holding it.
func (s *scanner) dirOf(path string) (string, bool) {
	dir, modPath := "", ""
	for mod, mdir := range s.modules {
		if (path == mod || strings.HasPrefix(path, mod+"/")) && len(mod) > len(modPath) {
			dir, modPath = filepath.Join(mdir, filepath.FromSlash(strings.TrimPrefix(path, mod))), mod
		}
	}
	return dir, modPath != ""
}

// Import implements types.Importer: a scanned module's packages from
// their non-test files, every other from the standard library.
func (s *scanner) Import(path string) (*types.Package, error) {
	if _, ok := s.dirOf(path); ok {
		return s.load(path)
	}
	return s.std.Import(path)
}

// load type-checks the non-test files of a scanned package once.
func (s *scanner) load(path string) (*types.Package, error) {
	if p, ok := s.pkgs[path]; ok {
		return p, nil
	}
	dir, _ := s.dirOf(path)
	bp, err := build.Default.ImportDir(dir, 0)
	if err != nil {
		return nil, err
	}
	cat := nonTest
	if s.benchMod != "" && (path == s.benchMod || strings.HasPrefix(path, s.benchMod+"/")) {
		cat = inPerfbench
	}
	p, err := s.check(path, join(dir, bp.GoFiles), cat, s)
	if err != nil {
		return nil, err
	}
	s.pkgs[path] = p
	return p, nil
}

// checkTests type-checks a package with its in-package test files, then
// its external test package against that, counting the tests' uses.
func (s *scanner) checkTests(dir string) error {
	bp, err := build.Default.ImportDir(dir, 0)
	if err != nil {
		return err
	}
	path := s.importPath(dir)
	var imp types.Importer = s
	if len(bp.TestGoFiles) > 0 {
		files := append(join(dir, bp.GoFiles), join(dir, bp.TestGoFiles)...)
		withTests, err := s.check(path, files, inTest, s)
		if err != nil {
			return err
		}
		imp = &testImporter{s: s, under: s.pkgs[path], pkgs: map[string]*types.Package{path: withTests}}
	}
	if len(bp.XTestGoFiles) > 0 {
		_, err = s.check(path+"_test", join(dir, bp.XTestGoFiles), inTest, imp)
	}
	return err
}

// testImporter is what an external test package imports when its
// package has in-package test files: as in go test, the package under
// test with those files, and every scanned package depending on it
// checked again against that copy.
type testImporter struct {
	s     *scanner
	under *types.Package // the package under test, without its tests
	pkgs  map[string]*types.Package
}

func (t *testImporter) Import(path string) (*types.Package, error) {
	if p, ok := t.pkgs[path]; ok {
		return p, nil
	}
	p, err := t.s.Import(path)
	if err != nil || !dependsOn(p, t.under, map[*types.Package]bool{}) {
		return p, err
	}
	dir, _ := t.s.dirOf(path)
	bp, err := build.Default.ImportDir(dir, 0)
	if err != nil {
		return nil, err
	}
	if p, err = t.s.check(path, join(dir, bp.GoFiles), noCount, t); err != nil {
		return nil, err
	}
	t.pkgs[path] = p
	return p, nil
}

// dependsOn reports whether p imports dep, directly or not.
func dependsOn(p, dep *types.Package, seen map[*types.Package]bool) bool {
	for _, q := range p.Imports() {
		if q == dep || (!seen[q] && dependsOn(q, dep, seen)) {
			return true
		}
		seen[q] = true
	}
	return false
}

func join(dir string, names []string) []string {
	out := make([]string, len(names))
	for i, n := range names {
		out[i] = filepath.Join(dir, n)
	}
	return out
}

// check type-checks files as package path and records the uses they
// make; a package checked with its tests (cat inTest) counts only the
// uses in its _test.go files, and only a package checked as nonTest or
// inPerfbench declares names.
func (s *scanner) check(path string, files []string, cat int, imp types.Importer) (*types.Package, error) {
	var asts []*ast.File
	for _, f := range files {
		af, ok := s.parsed[f]
		if !ok {
			var err error
			if af, err = parser.ParseFile(s.fset, f, nil, parser.SkipObjectResolution); err != nil {
				return nil, err
			}
			s.parsed[f] = af
		}
		asts = append(asts, af)
	}
	info := &types.Info{
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
		Types: map[ast.Expr]types.TypeAndValue{},
	}
	pkg, err := (&types.Config{Importer: imp}).Check(path, s.fset, asts, info)
	if err != nil {
		return nil, fmt.Errorf("checking %s: %w", path, err)
	}
	if cat == noCount {
		return pkg, nil
	}
	if cat != inTest {
		s.declare(pkg, asts, info)
	}
	s.collectInterfaces(pkg, info)
	writes := fieldWrites(asts)
	for id, obj := range info.Uses {
		if cat == inTest && !strings.HasSuffix(s.fset.Position(id.Pos()).Filename, "_test.go") {
			continue
		}
		if d, ok := s.decls[s.key(obj)]; !ok {
			continue
		} else if v, field := obj.(*types.Var); field && v.IsField() && writes[id] {
			d.sets[cat]++
		} else {
			d.uses[cat]++
		}
	}
	return pkg, nil
}

// fieldWrites returns the identifiers in files that may name a field
// being written: a composite literal's keys, and the selectors assigned
// to or incremented.
func fieldWrites(files []*ast.File) map[*ast.Ident]bool {
	out := map[*ast.Ident]bool{}
	lhs := func(e ast.Expr) {
		if sel, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
			out[sel.Sel] = true
		}
	}
	for _, af := range files {
		ast.Inspect(af, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CompositeLit:
				for _, el := range n.Elts {
					if kv, ok := el.(*ast.KeyValueExpr); ok {
						if id, ok := kv.Key.(*ast.Ident); ok {
							out[id] = true
						}
					}
				}
			case *ast.AssignStmt:
				for _, e := range n.Lhs {
					lhs(e)
				}
			case *ast.IncDecStmt:
				lhs(n.X)
			}
			return true
		})
	}
	return out
}

func (s *scanner) key(obj types.Object) string {
	if obj == nil || !obj.Pos().IsValid() {
		return ""
	}
	return s.fset.Position(obj.Pos()).String()
}

// fieldDecl is where a struct field is declared: the named type holding
// it ("" in an anonymous struct) and whether it has a tag.
type fieldDecl struct {
	owner  string
	tagged bool
}

// structFields maps the position of every named struct field in files
// to its declaration.
func structFields(files []*ast.File) map[token.Pos]fieldDecl {
	out := map[token.Pos]fieldDecl{}
	for _, af := range files {
		owner := ""
		ast.Inspect(af, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.TypeSpec:
				owner = n.Name.Name
			case *ast.FuncDecl, *ast.ValueSpec:
				owner = ""
			case *ast.StructType:
				for _, fl := range n.Fields.List {
					for _, name := range fl.Names {
						out[name.Pos()] = fieldDecl{owner: owner, tagged: fl.Tag != nil}
					}
				}
				owner = "" // a struct nested in this one is anonymous
			}
			return true
		})
	}
	return out
}

// declare records the package's exported package-level names, methods
// and struct fields.
func (s *scanner) declare(pkg *types.Package, files []*ast.File, info *types.Info) {
	if pkg.Name() == "main" {
		return
	}
	fields := structFields(files)
	for _, obj := range info.Defs {
		if obj == nil || !obj.Exported() {
			continue
		}
		d := &decl{pos: s.fset.Position(obj.Pos()), name: pkg.Name() + "." + obj.Name()}
		d.root = pkg.Path() == s.rootMod
		switch o := obj.(type) {
		case *types.Var:
			// An embedded field is read through the names it promotes, and
			// an anonymous struct's fields are no package's API.
			if fd := fields[o.Pos()]; o.IsField() && !o.Embedded() && fd.owner != "" {
				d.kind, d.tagged = "field", fd.tagged
				d.name = pkg.Name() + "." + fd.owner + "." + o.Name()
			} else if !o.IsField() && o.Parent() == pkg.Scope() {
				d.kind = "var"
			}
		case *types.Func:
			recv := o.Type().(*types.Signature).Recv()
			if recv == nil {
				d.kind = "func"
				break
			}
			t := recv.Type()
			if p, ok := t.(*types.Pointer); ok {
				t = p.Elem()
			}
			if _, ok := t.Underlying().(*types.Interface); ok {
				d.kind = "imethod"
			} else {
				d.kind, d.method = "method", o
			}
			if n, ok := t.(*types.Named); ok {
				d.name = pkg.Name() + "." + n.Obj().Name() + "." + o.Name()
			}
		case *types.Const:
			if o.Parent() == pkg.Scope() {
				d.kind = "const"
			}
		case *types.TypeName:
			if o.Parent() == pkg.Scope() {
				d.kind = "type"
			}
		}
		if d.kind != "" {
			s.decls[d.pos.String()] = d
		}
	}
}

// collectInterfaces gathers the interfaces a method might be called
// through: every named interface of the package and of the packages it
// imports, transitively, and every interface type its code uses, such
// as the target of a type assertion.
func (s *scanner) collectInterfaces(pkg *types.Package, info *types.Info) {
	seen := map[*types.Package]bool{}
	var walk func(p *types.Package)
	walk = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		for _, name := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok {
				s.addInterface(tn.Type(), p.Name()+"."+name)
			}
		}
		for _, q := range p.Imports() {
			walk(q)
		}
	}
	walk(pkg)
	s.addInterface(types.Universe.Lookup("error").Type(), "error")
	for _, tv := range info.Types {
		if tv.Type != nil {
			s.addInterface(tv.Type, types.TypeString(tv.Type, (*types.Package).Name))
		}
	}
}

// addErrorsInterfaces registers, once per scan, the interface literals
// errors.Is, errors.As and errors.Unwrap assert for inside the errors
// package: interface{ Unwrap() error }, interface{ Unwrap() []error },
// interface{ Is(error) bool } and interface{ As(any) bool }.
func (s *scanner) addErrorsInterfaces() {
	errT, anyT, boolT := types.Universe.Lookup("error").Type(), types.Universe.Lookup("any").Type(), types.Typ[types.Bool]
	tuple := func(ts ...types.Type) *types.Tuple {
		vars := make([]*types.Var, len(ts))
		for i, t := range ts {
			vars[i] = types.NewParam(token.NoPos, nil, "", t)
		}
		return types.NewTuple(vars...)
	}
	for _, m := range []struct {
		name           string
		params, result *types.Tuple
	}{
		{"Unwrap", tuple(), tuple(errT)},
		{"Unwrap", tuple(), tuple(types.NewSlice(errT))},
		{"Is", tuple(errT), tuple(boolT)},
		{"As", tuple(anyT), tuple(boolT)},
	} {
		sig := types.NewSignatureType(nil, nil, nil, m.params, m.result, false)
		it := types.NewInterfaceType([]*types.Func{types.NewFunc(token.NoPos, nil, m.name, sig)}, nil).Complete()
		s.addInterface(it, types.TypeString(it, nil))
	}
}

// addInterface records t if it is an interface, under the first in
// sort order of the names it is given, a named type's before a literal's.
func (s *scanner) addInterface(t types.Type, name string) {
	it, ok := t.Underlying().(*types.Interface)
	if !ok || !it.IsMethodSet() || it.NumMethods() == 0 {
		return
	}
	if _, named := t.(*types.Named); !named {
		name = "~" + name // sorts after every name a type declares
	}
	if old, ok := s.ifaces[it]; !ok || name < old {
		s.ifaces[it] = name
	}
}

// satisfies names up to three interfaces, declaring a method of m's
// name, that m's receiver type satisfies.
func (s *scanner) satisfies(m *types.Func) string {
	t := m.Type().(*types.Signature).Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok && n.TypeParams().Len() > 0 {
		return "" // Implements needs an instantiated type
	}
	var names []string
	for it, name := range s.ifaces {
		has := false
		for i := range it.NumMethods() {
			has = has || it.Method(i).Name() == m.Name()
		}
		if has && (types.Implements(t, it) || types.Implements(types.NewPointer(t), it)) {
			names = append(names, strings.TrimPrefix(name, "~"))
		}
	}
	sort.Strings(names)
	if len(names) > 3 {
		names = append(names[:3], "...")
	}
	return strings.Join(names, ", ")
}

func (s *scanner) report(root string) {
	order := []string{"interface", "tagged", "write-only", "api", "perfbench", "tests", "unused"}
	groups := map[string][]string{}
	var decls []*decl
	for _, d := range s.decls {
		decls = append(decls, d)
	}
	sort.Slice(decls, func(i, j int) bool {
		a, b := decls[i].pos, decls[j].pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		return a.Offset < b.Offset
	})
	for _, d := range decls {
		if d.uses[nonTest] > 0 {
			continue
		}
		group, via := "unused", ""
		if d.method != nil {
			via = s.satisfies(d.method)
		}
		switch {
		case via != "":
			group = "interface"
		case d.tagged:
			group = "tagged"
		case d.sets[nonTest] > 0:
			group = "write-only"
		case d.root:
			group = "api"
		case d.uses[inPerfbench] > 0:
			group = "perfbench"
		case d.uses[inTest] > 0:
			group = "tests"
		}
		pos, _ := filepath.Rel(root, d.pos.String())
		line := fmt.Sprintf("%s\t%s\t%s\ttest=%d perfbench=%d", pos, d.kind, d.name, d.uses[inTest], d.uses[inPerfbench])
		if d.sets[nonTest] > 0 {
			line += fmt.Sprintf(" set=%d", d.sets[nonTest])
		}
		if via != "" {
			line += "\t" + via
		}
		groups[group] = append(groups[group], line)
	}
	for _, g := range order {
		fmt.Printf("== %s (%d)\n", g, len(groups[g]))
		for _, line := range groups[g] {
			fmt.Println(line)
		}
	}
}
