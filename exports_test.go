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
	"reflect"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// testOnlyAllowed names the declarations and struct fields that no
// non-test code uses or reads but that stay on purpose, each with its
// reason. Keys are the names TestNoTestOnlyExports prints.
var testOnlyAllowed = map[string]string{
	"core.(*Graph).ConservationError": "the conservation oracle (held + consumed = capacity + recharged) the graph, kernel, radio, netd and app tests check against",
	"label.New":                       "builds a label with arbitrary exceptions; the label lattice tests draw random labels with it",
	"label.Label.Equal":               "normalized label equality, the oracle the label property tests compare with",
	"label.Label.Level":               "per-category lookup the label tests use to read back what New and With stored",
	"label.Priv.WithOwned":            "adds ownership without raising clearance; the label property tests grow privilege sets with it",
	"sched.(*Thread).TicksRun":        "scheduled-tick count the scheduler, kernel and integration tests assert fairness and throttling on",
	"core.replayMemo.hits":            "the replay memo's hit count, the oracle TestReplayMemoInvalidation and the memo's relife tests assert on; a memo that never hits still settles exactly, so only a count shows it working",
	"core.replayMemo.misses":          "the replay memo's miss count, read with hits by the same memo tests",

	// The coordinator's fault-injection harness, which only the
	// cluster tests run, entry by entry.
	"chaos.Wrap":                 "wraps a delivery.Conn with the seeded message faults of a Plan",
	"chaos.NewRestarter":         "wraps a delivery.Service with scheduled coordinator kill-restarts",
	"chaos.(*Restarter).Current": "the live coordinator behind a Restarter, for assertions after a kill",
	"chaos.(*Restarter).Kills":   "how many scheduled kills fired, so a test knows its schedule ran",
}

// TestNoTestOnlyExports type-checks every non-test package of the
// module and fails on each function, method, type, var or const
// declared under internal/, cmd/ or in the root facade that no non-test
// code uses, and on each struct field declared there that no non-test
// code reads. Such code is kept alive only by its tests: it gets a
// production caller or reader, goes, or gets a reasoned entry in
// testOnlyAllowed. The nested benchmark module is loaded as a reader
// only: its uses count, its declarations are not checked. The rule
// cases in testdata/usecheck are checked too, but only
// TestUseCheckerFieldRules reads what they report.
//
// A use inside the declaration itself (recursion, a method's own
// receiver) does not count, nor does a type alias's right-hand side: the
// root facade's aliases re-export names, they do not run them. A method
// is used when its receiver, or a pointer to it, implements an
// interface of the module, of a standard package the module imports, or
// interface{ Unwrap() error } (which errors.Is calls), and the method
// is one of that interface's — except a String() string method, which
// is used only when non-test code formats its type (below). A const
// group written with iota is used when any member is. A command's main
// and init run without a caller.
//
// A field is read by any selection of it except these, which only
// store or carry its value:
//   - the left side of an assignment, ++/-- or compound update,
//     through the struct- and array-valued fields that hold it. A
//     right-hand read still counts, unless it feeds only the field
//     itself (x.f = max(x.f, v), x.f = append(x.f, v));
//   - &x.f or &x.f[i] handed to a call inside a function taking a
//     *snap.Codec, and x.f passed to snap.Same*: the codec both saves
//     and loads, so it alone does not keep state live;
//   - a read inside a String() method, unless non-test code formats
//     its type: calls its String, passes a value of it to a ...any
//     parameter (fmt, log, a Failf-style wrapper) or to snap.Same*
//     (whose load mismatch formats it), or formats a value of an
//     interface type it implements (the %v of a kobj.Object) either
//     way. A value passed as an empty interface names no type.
//
// Every field of a struct is read when non-test code compares the
// struct with == or !=, keys a map with it or passes it whole to a
// ...any parameter, recursively through struct and array fields. A
// field with a json tag is read by the encoder. Embedded fields are
// not checked.
func TestNoTestOnlyExports(t *testing.T) {
	decls, fields := checkModule(t)
	var unused []string
	allowed := map[string]bool{}
	for _, f := range append(decls, fields...) {
		switch _, ok := testOnlyAllowed[f.name]; {
		case strings.HasPrefix(f.pos, "testdata/"):
		case ok:
			allowed[f.name] = true
		default:
			unused = append(unused, f.pos+" "+f.name)
		}
	}
	for name := range testOnlyAllowed {
		if !allowed[name] {
			t.Errorf("testOnlyAllowed names %s, which is gone or used outside tests: drop the entry", name)
		}
	}
	if len(unused) > 0 {
		t.Errorf("%d declarations and fields are used only by tests; delete them or add them to testOnlyAllowed with a reason:\n%s",
			len(unused), strings.Join(unused, "\n"))
	}
}

// TestUseCheckerStringRule runs the String rule over testdata/usecheck:
// a String() method nothing formats is reported even though its type
// satisfies fmt.Stringer, and one formatted through an interface, a
// ...any argument or snap.Same* is not.
func TestUseCheckerStringRule(t *testing.T) {
	decls, _ := checkModule(t)
	var got []string
	for _, f := range decls {
		if strings.HasPrefix(f.pos, "testdata/usecheck/") && strings.HasSuffix(f.name, ".String") {
			got = append(got, f.name)
		}
	}
	want := []string{"usecheck.(*counters).String", "usecheck.deadStringer.String"}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("unused String methods in testdata/usecheck:\n  got  %v\n  want %v", got, want)
	}
}

// TestUseCheckerFieldRules runs the field rules over
// testdata/usecheck, which holds one case per rule: each field named
// dead… is only stored, saved or read by an unformatted String, and
// must be reported; each field named live… or Live is read in one of
// the ways the rules count, and must not be.
func TestUseCheckerFieldRules(t *testing.T) {
	_, fields := checkModule(t)
	var got []string
	for _, f := range fields {
		if strings.HasPrefix(f.pos, "testdata/usecheck/") {
			got = append(got, f.name)
		}
	}
	sort.Strings(got)
	want := []string{
		"usecheck.counters.deadCount",
		"usecheck.counters.deadList",
		"usecheck.counters.deadMax",
		"usecheck.counters.deadSame",
		"usecheck.counters.deadSaved",
		"usecheck.counters.deadShown",
	}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("unread fields in testdata/usecheck:\n  got  %v\n  want %v", got, want)
	}
}

// finding is one unused declaration or unread field: its "file:line"
// and its printed name.
type finding struct{ pos, name string }

var (
	moduleOnce                sync.Once
	moduleDecls, moduleFields []finding
	moduleErr                 error
)

// checkModule runs the use check once per test binary over every
// non-test package of the module, benchmark/ as a reader and the rule
// cases in testdata/usecheck, and returns the unused declarations and
// the unread fields, each sorted by position.
func checkModule(t *testing.T) (decls, fields []finding) {
	moduleOnce.Do(func() { moduleDecls, moduleFields, moduleErr = runUseCheck() })
	if moduleErr != nil {
		t.Fatal(moduleErr)
	}
	return moduleDecls, moduleFields
}

func runUseCheck() (decls, fields []finding, err error) {
	c := newUseChecker()
	err = filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if name := d.Name(); path != "." && (name == "benchmark" || name == "testdata" || strings.HasPrefix(name, ".")) {
			return filepath.SkipDir
		}
		_, err = c.load(filepath.ToSlash(path))
		return err
	})
	for _, dir := range []string{"benchmark", "testdata/usecheck"} {
		if err == nil {
			_, err = c.load(dir)
		}
	}
	if err != nil {
		return nil, nil, err
	}
	if len(c.decls) < 100 || len(c.fields) < 500 {
		return nil, nil, fmt.Errorf("found only %d declarations and %d fields to check; the walk looks broken", len(c.decls), len(c.fields))
	}
	c.markInterfaceMethods()
	c.markFormatted()

	at := func(name string, pos token.Pos) finding {
		p := c.fset.Position(pos)
		return finding{fmt.Sprintf("%s:%d", filepath.ToSlash(p.Filename), p.Line), name}
	}
	for obj, d := range c.decls {
		if !c.used[obj] && !c.anyUsed(d.group) {
			decls = append(decls, at(d.name, obj.Pos()))
		}
	}
	for f, name := range c.fields {
		if !c.read[f] {
			fields = append(fields, at(name, f.Pos()))
		}
	}
	for _, fs := range [][]finding{decls, fields} {
		sort.Slice(fs, func(i, j int) bool { return fs[i].pos+fs[i].name < fs[j].pos+fs[j].name })
	}
	return decls, fields, nil
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
	decls   map[types.Object]declInfo // checked declarations
	used    map[types.Object]bool
	own     map[types.Object][]span // where a use of the object is a self-use
	ifaces  []*types.Interface      // the module's interface types, named or not

	fields    map[*types.Var]string // checked struct fields, by printed name
	read      map[*types.Var]bool
	inString  map[*types.TypeName][]*types.Var // fields read by the type's String method
	formatted map[*types.TypeName]bool         // types non-test code formats
	fmtIfaces []*types.Interface               // interface types non-test code formats values of
}

func newUseChecker() *useChecker {
	fset := token.NewFileSet()
	return &useChecker{
		fset:      fset,
		stdImp:    importer.ForCompiler(fset, "source", nil).(types.ImporterFrom),
		pkgs:      map[string]*types.Package{},
		stdPkgs:   map[*types.Package]bool{},
		decls:     map[types.Object]declInfo{},
		used:      map[types.Object]bool{},
		own:       map[types.Object][]span{},
		fields:    map[*types.Var]string{},
		read:      map[*types.Var]bool{},
		inString:  map[*types.TypeName][]*types.Var{},
		formatted: map[*types.TypeName]bool{},
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

	checked := dir == "." || strings.HasPrefix(dir, "internal/") || strings.HasPrefix(dir, "cmd/") || strings.HasPrefix(dir, "testdata/")
	var aliases []span
	for _, f := range files {
		aliases = append(aliases, c.declare(pkg, f, info, checked)...)
		c.walk(f, info)
	}
	use := func(id *ast.Ident, obj types.Object) {
		if obj == nil || obj.Pkg() == nil {
			return
		}
		switch o := obj.(type) {
		case *types.Func:
			obj = o.Origin()
		case *types.Var:
			if o.IsField() {
				return // walk classifies field selections
			}
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
// receiver never counts as a use of its type. Only the declarations
// and struct fields of checked packages are checked. It returns the
// spans of f's type aliases.
func (c *useChecker) declare(pkg *types.Package, f *ast.File, info *types.Info, checked bool) (aliases []span) {
	add := func(id *ast.Ident, name string, s span, group []types.Object) {
		obj := info.Defs[id]
		if obj == nil || id.Name == "_" || name == "main.main" || name == pkg.Name()+".init" {
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
					if st, ok := s.Type.(*ast.StructType); ok && checked {
						c.declareFields(pkg.Name()+"."+s.Name.Name, st, info)
					}
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

// declareFields records the named fields of st, and of the anonymous
// structs they hold, under prefix. A json-tagged field is read by the
// encoder.
func (c *useChecker) declareFields(prefix string, st *ast.StructType, info *types.Info) {
	for _, fd := range st.Fields.List {
		for _, id := range fd.Names {
			v, ok := info.Defs[id].(*types.Var)
			if !ok || id.Name == "_" {
				continue
			}
			c.fields[v] = prefix + "." + id.Name
			if fd.Tag != nil {
				tag, _ := strconv.Unquote(fd.Tag.Value)
				if name, ok := reflect.StructTag(tag).Lookup("json"); ok && name != "-" {
					c.read[v] = true
				}
			}
			if inner, ok := fd.Type.(*ast.StructType); ok {
				c.declareFields(prefix+"."+id.Name, inner, info)
			}
		}
	}
}

// walk records the interface types f spells out and how it reads struct
// fields, by the rules TestNoTestOnlyExports states.
func (c *useChecker) walk(f *ast.File, info *types.Info) {
	stores := map[*ast.SelectorExpr]bool{} // field selections that only store
	for _, decl := range f.Decls {
		stringer := stringRecv(decl, info)
		var stack []ast.Node // enclosing nodes, for the codec rule
		ast.Inspect(decl, func(n ast.Node) bool {
			if n == nil {
				stack = stack[:len(stack)-1]
				return true
			}
			stack = append(stack, n)
			switch n := n.(type) {
			case *ast.InterfaceType:
				c.ifaces = append(c.ifaces, info.TypeOf(n).(*types.Interface))
			case *ast.AssignStmt:
				if n.Tok != token.DEFINE {
					for _, l := range n.Lhs {
						store(l, false, info, stores)
					}
				}
				if len(n.Lhs) == 1 && len(n.Rhs) == 1 {
					selfUpdate(n.Lhs[0], n.Rhs[0], info, stores)
				}
			case *ast.IncDecStmt:
				store(n.X, false, info, stores)
			case *ast.BinaryExpr:
				if n.Op == token.EQL || n.Op == token.NEQ {
					c.readAll(info.TypeOf(n.X), false)
				}
			case *ast.MapType:
				c.readAll(info.TypeOf(n.Key), false)
			case *ast.CallExpr:
				c.call(n, info, stack, stores)
			case *ast.SelectorExpr:
				sel := info.Selections[n]
				switch {
				case sel == nil || stores[n]:
				case sel.Kind() == types.FieldVal && stringer != nil:
					c.inString[stringer] = append(c.inString[stringer], sel.Obj().(*types.Var).Origin())
				case sel.Kind() == types.FieldVal:
					c.read[sel.Obj().(*types.Var).Origin()] = true
				case sel.Obj().Name() == "String":
					c.format(sel.Recv())
				}
			}
			return true
		})
	}
}

// call applies the call rules: arguments to snap.Same* and, inside a
// codec function, &x.f arguments only store; ...any arguments are read
// whole.
func (c *useChecker) call(n *ast.CallExpr, info *types.Info, stack []ast.Node, stores map[*ast.SelectorExpr]bool) {
	if fn := callee(n, info); fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "repro/internal/snap" && strings.HasPrefix(fn.Name(), "Same") {
		for _, a := range n.Args {
			store(a, false, info, stores)
		}
		c.format(info.TypeOf(n.Args[len(n.Args)-1]))
	}
	if inCodec(stack, info) {
		for _, a := range n.Args {
			if u, ok := ast.Unparen(a).(*ast.UnaryExpr); ok && u.Op == token.AND {
				store(u.X, true, info, stores)
			}
		}
	}
	sig, ok := info.TypeOf(n.Fun).(*types.Signature)
	if !ok || !sig.Variadic() || n.Ellipsis.IsValid() {
		return
	}
	last := sig.Params().Len() - 1
	if it, ok := sig.Params().At(last).Type().(*types.Slice).Elem().Underlying().(*types.Interface); ok && it.Empty() {
		for _, a := range n.Args[min(last, len(n.Args)):] {
			c.readAll(info.TypeOf(a), true)
		}
	}
}

// callee returns the function or method a call names, or nil.
func callee(n *ast.CallExpr, info *types.Info) *types.Func {
	fun := ast.Unparen(n.Fun)
	switch x := fun.(type) {
	case *ast.IndexExpr:
		fun = x.X
	case *ast.IndexListExpr:
		fun = x.X
	}
	var id *ast.Ident
	switch x := fun.(type) {
	case *ast.Ident:
		id = x
	case *ast.SelectorExpr:
		id = x.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

// store marks the field selections of e as stores: e itself and, through
// struct- and array-valued parts (and with refs, slice elements too),
// the fields that hold it.
func store(e ast.Expr, refs bool, info *types.Info, stores map[*ast.SelectorExpr]bool) {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.SelectorExpr:
			sel := info.Selections[x]
			if sel == nil || sel.Kind() != types.FieldVal {
				return
			}
			stores[x] = true
			if sel.Indirect() {
				return
			}
			e = x.X
		case *ast.IndexExpr:
			switch info.TypeOf(x.X).Underlying().(type) {
			case *types.Array:
			case *types.Slice:
				if !refs {
					return
				}
			default:
				return
			}
			e = x.X
		default:
			return
		}
	}
}

// selfUpdate marks as stores the selections in rhs of the field that
// lhs assigns: in x.f = append(x.f, v) or x.f = max(x.f, v) the read
// feeds only f itself.
func selfUpdate(lhs, rhs ast.Expr, info *types.Info, stores map[*ast.SelectorExpr]bool) {
	l, ok := ast.Unparen(lhs).(*ast.SelectorExpr)
	if !ok || info.Selections[l] == nil || info.Selections[l].Kind() != types.FieldVal {
		return
	}
	f := info.Selections[l].Obj()
	ast.Inspect(rhs, func(n ast.Node) bool {
		if r, ok := n.(*ast.SelectorExpr); ok && info.Selections[r] != nil && info.Selections[r].Obj() == f {
			stores[r] = true
		}
		return true
	})
}

// inCodec reports whether the innermost function of stack takes a
// *snap.Codec.
func inCodec(stack []ast.Node, info *types.Info) bool {
	for i := len(stack) - 1; i >= 0; i-- {
		var ft *ast.FuncType
		switch fn := stack[i].(type) {
		case *ast.FuncLit:
			ft = fn.Type
		case *ast.FuncDecl:
			ft = fn.Type
		default:
			continue
		}
		for _, p := range ft.Params.List {
			if ptr, ok := info.TypeOf(p.Type).(*types.Pointer); ok {
				if n, ok := ptr.Elem().(*types.Named); ok && n.Obj().Name() == "Codec" && n.Obj().Pkg().Path() == "repro/internal/snap" {
					return true
				}
			}
		}
		return false
	}
	return false
}

// stringRecv returns the receiver type of decl when decl is a
// String() string method, or nil.
func stringRecv(decl ast.Decl, info *types.Info) *types.TypeName {
	fd, ok := decl.(*ast.FuncDecl)
	if !ok || fd.Recv == nil || fd.Name.Name != "String" {
		return nil
	}
	sig := info.Defs[fd.Name].Type().(*types.Signature)
	if !isStringer(sig) {
		return nil
	}
	return namedOf(sig.Recv().Type())
}

// isStringer reports whether sig is that of a String() string method.
func isStringer(sig *types.Signature) bool {
	return sig.Params().Len() == 0 && sig.Results().Len() == 1 && sig.Results().At(0).Type() == types.Typ[types.String]
}

// namedOf returns the generic origin of t or *t's named type, or nil.
func namedOf(t types.Type) *types.TypeName {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Origin().Obj()
	}
	return nil
}

// format records that non-test code formats values of t, or of the
// types implementing t when t is a non-empty interface.
func (c *useChecker) format(t types.Type) {
	if it, ok := t.Underlying().(*types.Interface); ok {
		if !it.Empty() {
			c.fmtIfaces = append(c.fmtIfaces, it)
		}
		return
	}
	if tn := namedOf(t); tn != nil {
		c.formatted[tn] = true
	}
}

// readAll marks every field of t read, recursively through struct and
// array fields: t is compared, used as a map key or, when formatting,
// passed whole to a ...any parameter. Formatting also looks through a
// top-level pointer and through slices and maps, and a value with a
// String or Error method is formatted by that method, not field by
// field.
func (c *useChecker) readAll(t types.Type, formatting bool) {
	if t == nil {
		return
	}
	if p, ok := t.(*types.Pointer); ok && formatting {
		t = p.Elem()
	}
	seen := map[types.Type]bool{}
	var visit func(types.Type)
	visit = func(t types.Type) {
		if seen[t] {
			return
		}
		seen[t] = true
		if formatting {
			if m, _, _ := types.LookupFieldOrMethod(t, false, nil, "String"); m != nil {
				c.format(t)
				return
			}
			if m, _, _ := types.LookupFieldOrMethod(t, false, nil, "Error"); m != nil {
				return
			}
			if _, ok := t.Underlying().(*types.Interface); ok {
				c.format(t)
				return
			}
		}
		switch u := t.Underlying().(type) {
		case *types.Struct:
			for i := 0; i < u.NumFields(); i++ {
				c.read[u.Field(i).Origin()] = true
				visit(u.Field(i).Type())
			}
		case *types.Array:
			visit(u.Elem())
		case *types.Slice:
			if formatting {
				visit(u.Elem())
			}
		case *types.Map:
			if formatting {
				visit(u.Key())
				visit(u.Elem())
			}
		}
	}
	visit(t)
}

// markFormatted marks formatted each module type implementing a
// formatted interface, then marks used the String method of each
// formatted type and counts that method's field reads.
func (c *useChecker) markFormatted() {
	for _, n := range c.moduleNamed() {
		for _, it := range c.fmtIfaces {
			if types.Implements(n, it) || types.Implements(types.NewPointer(n), it) {
				c.formatted[n.Obj()] = true
			}
		}
	}
	for tn := range c.formatted {
		if m, _, _ := types.LookupFieldOrMethod(tn.Type(), true, tn.Pkg(), "String"); m != nil {
			c.used[m.(*types.Func).Origin()] = true
		}
		for _, v := range c.inString[tn] {
			c.read[v] = true
		}
	}
}

// moduleNamed returns the module's named non-interface types.
func (c *useChecker) moduleNamed() []*types.Named {
	var named []*types.Named
	for _, pkg := range c.pkgs {
		if pkg == nil {
			continue
		}
		for _, name := range pkg.Scope().Names() {
			tn, ok := pkg.Scope().Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			if n, ok := tn.Type().(*types.Named); ok && !types.IsInterface(n) {
				named = append(named, n)
			}
		}
	}
	return named
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
// errors.Is and errors.As call. A String() string method is left to
// markFormatted.
func (c *useChecker) markInterfaceMethods() {
	unwrap := types.NewSignatureType(nil, nil, nil, nil,
		types.NewTuple(types.NewVar(token.NoPos, nil, "", types.Universe.Lookup("error").Type())), false)
	ifaces := append(c.ifaces,
		types.Universe.Lookup("error").Type().Underlying().(*types.Interface),
		types.NewInterfaceType([]*types.Func{types.NewFunc(token.NoPos, nil, "Unwrap", unwrap)}, nil).Complete())
	for pkg := range c.stdPkgs {
		for _, name := range pkg.Scope().Names() {
			tn, ok := pkg.Scope().Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			if n, ok := tn.Type().(*types.Named); ok && n.TypeParams().Len() == 0 {
				if it, ok := n.Underlying().(*types.Interface); ok {
					ifaces = append(ifaces, it)
				}
			}
		}
	}
	for _, n := range c.moduleNamed() {
		for _, it := range ifaces {
			if it.NumMethods() == 0 || !it.IsMethodSet() {
				continue
			}
			if !types.Implements(n, it) && !types.Implements(types.NewPointer(n), it) {
				continue
			}
			for i := 0; i < it.NumMethods(); i++ {
				m := it.Method(i)
				if m.Name() == "String" && isStringer(m.Type().(*types.Signature)) {
					continue
				}
				obj, _, _ := types.LookupFieldOrMethod(n, true, n.Obj().Pkg(), m.Name())
				if f, ok := obj.(*types.Func); ok {
					c.used[f.Origin()] = true
				}
			}
		}
	}
}
