package cinder

import (
	"errors"
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
	"testing"
)

// testOnlyAllowed names the declarations under internal/ that no
// non-test code uses but that stay on purpose, each with its reason.
// Keys are the names TestNoTestOnlyExports prints.
var testOnlyAllowed = map[string]string{
	"core.(*Graph).ConservationError": "the conservation oracle (held + consumed = capacity + recharged) the graph, kernel, radio, netd and app tests check against",
	"label.New":                       "builds a label with arbitrary exceptions; the label lattice tests draw random labels with it",
	"label.Label.Equal":               "normalized label equality, the oracle the label property tests compare with",
	"label.Label.Level":               "per-category lookup the label tests use to read back what New and With stored",
	"label.Priv.WithOwned":            "adds ownership without raising clearance; the label property tests grow privilege sets with it",
	"sched.(*Thread).TicksRun":        "scheduled-tick count the scheduler, kernel and integration tests assert fairness and throttling on",

	// The coordinator's fault-injection harness, which only the
	// cluster tests run, entry by entry.
	"chaos.Wrap":                 "wraps a delivery.Conn with the seeded message faults of a Plan",
	"chaos.NewRestarter":         "wraps a delivery.Service with scheduled coordinator kill-restarts",
	"chaos.(*Restarter).Current": "the live coordinator behind a Restarter, for assertions after a kill",
	"chaos.(*Restarter).Kills":   "how many scheduled kills fired, so a test knows its schedule ran",
}

// TestNoTestOnlyExports type-checks every non-test package of the
// module (the nested benchmark module aside) and fails on each
// function, method, type, var or const declared under internal/ that
// no non-test code uses. Such code is kept alive only by its tests: it
// gets a production caller, goes, or gets a reasoned entry in
// testOnlyAllowed.
//
// A use inside the declaration itself (recursion, a method's own
// receiver) does not count, nor does a type alias: the root facade's
// aliases re-export names, they do not run them. A method is used when
// its receiver, or a pointer to it, implements an interface of the
// module, of a standard package the module imports, or
// interface{ Unwrap() error } (which errors.Is calls), and the method
// is one of that interface's. A const group written with iota is used
// when any member is.
func TestNoTestOnlyExports(t *testing.T) {
	c := newUseChecker()
	err := filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if name := d.Name(); path != "." && (name == "benchmark" || name == "testdata" || strings.HasPrefix(name, ".")) {
			return filepath.SkipDir
		}
		_, err = c.load(filepath.ToSlash(path))
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(c.decls) < 100 {
		t.Fatalf("found only %d declarations under internal/; the walk looks broken", len(c.decls))
	}
	c.markInterfaceMethods()

	var unused []string
	allowed := map[string]bool{}
	for obj, d := range c.decls {
		if c.used[obj] || c.anyUsed(d.group) {
			continue
		}
		if _, ok := testOnlyAllowed[d.name]; ok {
			allowed[d.name] = true
			continue
		}
		pos := c.fset.Position(obj.Pos())
		unused = append(unused, fmt.Sprintf("%s:%d %s", filepath.ToSlash(pos.Filename), pos.Line, d.name))
	}
	for name := range testOnlyAllowed {
		if !allowed[name] {
			t.Errorf("testOnlyAllowed names %s, which is gone or used outside tests: drop the entry", name)
		}
	}
	if len(unused) > 0 {
		sort.Strings(unused)
		t.Errorf("%d declarations under internal/ are used only by tests; delete them or add them to testOnlyAllowed with a reason:\n%s",
			len(unused), strings.Join(unused, "\n"))
	}
}

// declInfo is one checked declaration: its printed name and, for a
// member of an iota const group, the whole group.
type declInfo struct {
	name  string
	group []types.Object
}

// span is a source range [from, to).
type span struct{ from, to token.Pos }

func (s span) holds(p token.Pos) bool { return s.from <= p && p < s.to }

// useChecker type-checks the module's packages from source, each once,
// so every package shares one object per declaration.
type useChecker struct {
	fset    *token.FileSet
	stdImp  types.ImporterFrom
	pkgs    map[string]*types.Package // module packages, by directory
	stdPkgs map[*types.Package]bool   // standard packages the module imports
	decls   map[types.Object]declInfo // declarations under internal/
	used    map[types.Object]bool
	own     map[types.Object][]span // where a use of the object is a self-use
	ifaces  []*types.Interface      // the module's interface types, named or not
}

func newUseChecker() *useChecker {
	fset := token.NewFileSet()
	return &useChecker{
		fset:    fset,
		stdImp:  importer.ForCompiler(fset, "source", nil).(types.ImporterFrom),
		pkgs:    map[string]*types.Package{},
		stdPkgs: map[*types.Package]bool{},
		decls:   map[types.Object]declInfo{},
		used:    map[types.Object]bool{},
		own:     map[types.Object][]span{},
	}
}

func (c *useChecker) Import(path string) (*types.Package, error) {
	return c.ImportFrom(path, "", 0)
}

// ImportFrom resolves the module's own packages by reading their
// directories and everything else through the standard source importer.
func (c *useChecker) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if path == "repro" {
		return c.load(".")
	}
	if rel, ok := strings.CutPrefix(path, "repro/"); ok {
		return c.load(rel)
	}
	pkg, err := c.stdImp.ImportFrom(path, dir, mode)
	if err == nil {
		c.stdPkgs[pkg] = true
	}
	return pkg, err
}

// load type-checks the non-test files of the package in dir (relative
// to the module root) and records its declarations and uses. It
// returns nil for a directory with no non-test Go files.
func (c *useChecker) load(dir string) (*types.Package, error) {
	if pkg, ok := c.pkgs[dir]; ok {
		return pkg, nil
	}
	bp, err := build.Default.ImportDir(dir, 0)
	var noGo *build.NoGoError
	if errors.As(err, &noGo) || (err == nil && len(bp.GoFiles) == 0) {
		c.pkgs[dir] = nil
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(c.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	path := "repro"
	if dir != "." {
		path += "/" + dir
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	conf := types.Config{Importer: c}
	pkg, err := conf.Check(path, c.fset, files, info)
	if err != nil {
		return nil, err
	}
	c.pkgs[dir] = pkg

	var aliases []span
	for _, f := range files {
		aliases = append(aliases, c.declare(pkg, f, info, strings.HasPrefix(dir, "internal/"))...)
		ast.Inspect(f, func(n ast.Node) bool {
			if it, ok := n.(*ast.InterfaceType); ok {
				c.ifaces = append(c.ifaces, info.TypeOf(it).(*types.Interface))
			}
			return true
		})
	}
	use := func(id *ast.Ident, obj types.Object) {
		if obj == nil || obj.Pkg() == nil {
			return
		}
		switch o := obj.(type) {
		case *types.Func:
			obj = o.Origin()
		case *types.Var:
			obj = o.Origin()
		}
		for _, s := range aliases {
			if s.holds(id.Pos()) {
				return
			}
		}
		for _, s := range c.own[obj] {
			if s.holds(id.Pos()) {
				return
			}
		}
		c.used[obj] = true
	}
	for id, obj := range info.Uses {
		use(id, obj)
	}
	for sel, s := range info.Selections {
		use(sel.Sel, s.Obj())
	}
	return pkg, nil
}

// declare records the package-level declarations of f and their
// self-use spans, the latter for every package so that a method's
// receiver never counts as a use of its type. Only declarations under
// internal/ are checked. It returns the spans of f's type aliases.
func (c *useChecker) declare(pkg *types.Package, f *ast.File, info *types.Info, checked bool) (aliases []span) {
	add := func(id *ast.Ident, name string, s span, group []types.Object) {
		obj := info.Defs[id]
		if obj == nil || id.Name == "_" {
			return
		}
		c.own[obj] = append(c.own[obj], s)
		if checked {
			c.decls[obj] = declInfo{name: name, group: group}
		}
	}
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			name := pkg.Name() + "." + d.Name.Name
			if d.Recv != nil {
				expr, ptr := d.Recv.List[0].Type, false
				if p, ok := expr.(*ast.StarExpr); ok {
					expr, ptr = p.X, true
				}
				switch r := expr.(type) {
				case *ast.IndexExpr:
					expr = r.X
				case *ast.IndexListExpr:
					expr = r.X
				}
				id := expr.(*ast.Ident)
				if tn := info.Uses[id]; tn != nil {
					c.own[tn] = append(c.own[tn], span{d.Recv.Pos(), d.Recv.End()})
				}
				recv := id.Name
				if ptr {
					recv = "(*" + recv + ")" // printed the way the go tool does
				}
				name = pkg.Name() + "." + recv + "." + d.Name.Name
			}
			add(d.Name, name, span{d.Pos(), d.End()}, nil)
		case *ast.GenDecl:
			var group []types.Object
			if d.Tok == token.CONST && usesIota(d) {
				for _, spec := range d.Specs {
					for _, id := range spec.(*ast.ValueSpec).Names {
						if obj := info.Defs[id]; obj != nil && id.Name != "_" {
							group = append(group, obj)
						}
					}
				}
			}
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					if s.Assign.IsValid() {
						aliases = append(aliases, span{s.Pos(), s.End()})
					}
					add(s.Name, pkg.Name()+"."+s.Name.Name, span{s.Pos(), s.End()}, nil)
				case *ast.ValueSpec:
					for _, id := range s.Names {
						add(id, pkg.Name()+"."+id.Name, span{s.Pos(), s.End()}, group)
					}
				}
			}
		}
	}
	return aliases
}

func usesIota(d *ast.GenDecl) bool {
	found := false
	ast.Inspect(d, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && id.Name == "iota" {
			found = true
		}
		return !found
	})
	return found
}

func (c *useChecker) anyUsed(objs []types.Object) bool {
	for _, o := range objs {
		if c.used[o] {
			return true
		}
	}
	return false
}

// markInterfaceMethods marks as used each method that makes a module
// type satisfy an interface: the module's own interface types (named or
// written inline, as in a parameter), the named interfaces of the
// standard packages it imports, error, and the Unwrap interface that
// errors.Is and errors.As call.
func (c *useChecker) markInterfaceMethods() {
	unwrap := types.NewSignatureType(nil, nil, nil, nil,
		types.NewTuple(types.NewVar(token.NoPos, nil, "", types.Universe.Lookup("error").Type())), false)
	ifaces := append(c.ifaces,
		types.Universe.Lookup("error").Type().Underlying().(*types.Interface),
		types.NewInterfaceType([]*types.Func{types.NewFunc(token.NoPos, nil, "Unwrap", unwrap)}, nil).Complete())
	var named []*types.Named
	scan := func(pkg *types.Package, module bool) {
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			n, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			if it, ok := n.Underlying().(*types.Interface); !ok {
				if module {
					named = append(named, n)
				}
			} else if !module && n.TypeParams().Len() == 0 {
				ifaces = append(ifaces, it)
			}
		}
	}
	for _, pkg := range c.pkgs {
		if pkg != nil {
			scan(pkg, true)
		}
	}
	for pkg := range c.stdPkgs {
		scan(pkg, false)
	}
	for _, n := range named {
		for _, it := range ifaces {
			if it.NumMethods() == 0 || !it.IsMethodSet() {
				continue
			}
			if !types.Implements(n, it) && !types.Implements(types.NewPointer(n), it) {
				continue
			}
			for i := 0; i < it.NumMethods(); i++ {
				obj, _, _ := types.LookupFieldOrMethod(n, true, n.Obj().Pkg(), it.Method(i).Name())
				if f, ok := obj.(*types.Func); ok {
					c.used[f.Origin()] = true
				}
			}
		}
	}
}
