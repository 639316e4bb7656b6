package diesel

// Exported-surface tests. An exported func or method of an internal/
// package (the frozen paper substrates aside) must be referenced from
// outside its own package — by another internal package, cmd/, examples/ or
// bench/ — or be on the allow-list below with its reason. An entry point
// nothing calls but its own package's tests is deleted, and a helper only
// its own package calls is unexported; this is what keeps the surface from
// regrowing, the way TestMetricsReferenceDoc does for metric families.
// Another package's test counts as a caller: a name those tests need cannot
// be unexported (server.NewLocalStack, kvstore's FlushAll under the
// recovery tests).
//
// The same rule holds for settings: an exported field of an exported
// …Config or …Options struct must be set outside its own package or be on
// optionsAllow with its reason. A value only the package's own tests change
// is a constant, and the test that needs another value sets an unexported
// field of the same struct.
//
// Matching is syntactic (go/parser, no type checking). A func counts as
// referenced by `pkg.Func` under the file's import name for its package. A
// method call names no package, so an `x.Method(args)` selector (x not an
// imported package) counts for the packages that declare a Method taking
// that many arguments and that the file imports — or, when it imports none
// of them, for all that declare one: the value then came through another
// package's hands. A field counts as set by a keyed `pkg.T{Field: …}`
// literal, or by an `x.Field = …` assignment under the same import rule as
// a method call.

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// frozenPackages are the paper-reproduction substrates ROADMAP aim 2
// freezes: they regenerate the paper's figures and stay as they are.
var frozenPackages = map[string]bool{
	"sim": true, "cluster": true, "lustre": true, "memcached": true, "fuselite": true, "trace": true,
}

// surfaceAllow lists the exported names nothing outside their package
// references, each with the reason it stays exported. A key is
// "pkg.Func", "pkg.Type.Method", or "pkg.*.Method" for every type's.
var surfaceAllow = map[string]string{
	"train.*.Scores": "satisfies train.Model, which the package's own evaluation loop calls",

	"wire.ReadFrame":  "the frame codec's entry point: what the CI fuzz target (FuzzReadFrame) and the frame benchmarks drive",
	"wire.WriteFrame": "ReadFrame's counterpart, pinned byte for byte by the same fuzz target",

	"dcache.Peer.PrefetchErr": "the only place the error of a failed background Oneshot prefetch surfaces (the counter says only that one failed)",
}

// optionsAllow lists the exported …Config/…Options fields nothing outside
// their package sets, each with the reason it stays a field. A key is
// "pkg.Type.Field", or "pkg.Type.*" for every field of the type.
var optionsAllow = map[string]string{
	"core.Config.ObjStoreDir":     "a deployment path, configurable by rule; core's on-disk tests set it",
	"server.ExecutorConfig.Stats": "an output the executor accumulates into, not a setting",
	"train.Fig13Config.*": "the Figure 13 experiment's recorded parameters: DefaultFig13Config is the paper's setup, " +
		"the figure's printers read it back, and train's tests shrink it to run in seconds",
}

const internalPath = "diesel/internal/"

// goFile is one parsed Go file of the tree.
type goFile struct {
	path, dir string
	f         *ast.File
	local     map[string]string // import name → import path
	imports   map[string]bool   // import paths, the file's own package included
}

// surfacePkg reports the internal package whose surface f declares, or ""
// when f is a test, outside internal/, nested or frozen.
func (g goFile) surfacePkg() string {
	pkg, ok := strings.CutPrefix(g.dir, "internal/")
	if !ok || strings.Contains(pkg, "/") || frozenPackages[pkg] || strings.HasSuffix(g.path, "_test.go") {
		return ""
	}
	return pkg
}

// pkgOf returns the internal package an identifier names in f, if any.
func (g goFile) pkgOf(x ast.Expr) string {
	id, ok := x.(*ast.Ident)
	if !ok {
		return ""
	}
	p, _ := strings.CutPrefix(g.local[id.Name], internalPath)
	return p
}

// parseTree parses every Go file of the repository, bench/ included.
func parseTree(t *testing.T) []goFile {
	t.Helper()
	var files []goFile
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		g := goFile{path: path, dir: filepath.ToSlash(filepath.Dir(path)), f: f, local: map[string]string{}, imports: map[string]bool{}}
		g.imports["diesel/"+g.dir] = true // a file sees its own package's methods and fields
		for _, im := range f.Imports {
			p := strings.Trim(im.Path.Value, `"`)
			name := p[strings.LastIndex(p, "/")+1:]
			if im.Name != nil {
				name = im.Name.Name
			}
			g.local[name], g.imports[p] = p, true
		}
		files = append(files, g)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

func TestExportedSurfaceHasCallers(t *testing.T) {
	type decl struct{ pkg, name, key string }
	type source struct {
		dir     string
		imports map[string]bool
		methods map[string][]int // name selected on a value → argument counts it is called with (-1: not known)
	}
	type method struct {
		pkg      string
		min, max int // arguments a call may pass
	}
	var decls []decl
	var sources []source
	funcRefs := map[string]bool{}      // "importpath.Func", selected through an import
	declarers := map[string][]method{} // exported method name → its declarations

	for _, g := range parseTree(t) {
		src := source{dir: g.dir, imports: g.imports, methods: map[string][]int{}}
		args := map[ast.Expr]int{} // the selector of a call → how many arguments the call passes
		ast.Inspect(g.f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				args[n.Fun] = len(n.Args)
				if n.Ellipsis.IsValid() {
					args[n.Fun] = -1 // x.M(s...) passes an unknown number
				} else if len(n.Args) == 1 {
					if _, spread := n.Args[0].(*ast.CallExpr); spread {
						args[n.Fun] = -1 // and so may x.M(f())
					}
				}
			case *ast.SelectorExpr:
				if x, ok := n.X.(*ast.Ident); ok && g.local[x.Name] != "" {
					funcRefs[g.local[x.Name]+"."+n.Sel.Name] = true
				} else if passed, called := args[n]; called {
					src.methods[n.Sel.Name] = append(src.methods[n.Sel.Name], passed)
				} else {
					src.methods[n.Sel.Name] = append(src.methods[n.Sel.Name], -1) // a method value
				}
			}
			return true
		})
		sources = append(sources, src)

		pkg := g.surfacePkg()
		if pkg == "" {
			continue
		}
		for _, d := range g.f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || !fn.Name.IsExported() {
				continue
			}
			name := fn.Name.Name
			if fn.Recv == nil {
				decls = append(decls, decl{pkg, name, pkg + "." + name})
				continue
			}
			recv := fn.Recv.List[0].Type
			if star, ok := recv.(*ast.StarExpr); ok {
				recv = star.X
			}
			if id, ok := recv.(*ast.Ident); ok && id.IsExported() { // an unexported type's methods are not surface
				decls = append(decls, decl{pkg, name, pkg + "." + id.Name + "." + name})
				m := method{pkg: pkg}
				for _, p := range fn.Type.Params.List {
					m.min += max(len(p.Names), 1)
				}
				m.max = m.min
				if n := len(fn.Type.Params.List); n > 0 {
					if _, variadic := fn.Type.Params.List[n-1].Type.(*ast.Ellipsis); variadic {
						m.min, m.max = m.min-1, 1<<30
					}
				}
				declarers[name] = append(declarers[name], m)
			}
		}
	}

	methodRefs := map[string]bool{} // "pkg.Method", selected on a value outside pkg
	for _, src := range sources {
		for name, calls := range src.methods {
			for _, passed := range calls {
				fits := func(m method) bool { return passed < 0 || m.min <= passed && passed <= m.max }
				imported := false
				for _, m := range declarers[name] {
					imported = imported || fits(m) && src.imports[internalPath+m.pkg]
				}
				for _, m := range declarers[name] {
					if fits(m) && (src.imports[internalPath+m.pkg] || !imported) && src.dir != "internal/"+m.pkg {
						methodRefs[m.pkg+"."+name] = true
					}
				}
			}
		}
	}

	used := map[string]bool{}
	var orphans []string
	for _, d := range decls {
		method := strings.Count(d.key, ".") == 2
		wild := d.pkg + ".*." + d.name
		switch {
		case method && methodRefs[d.pkg+"."+d.name], !method && funcRefs[internalPath+d.pkg+"."+d.name]:
		case surfaceAllow[d.key] != "":
			used[d.key] = true
		case method && surfaceAllow[wild] != "":
			used[wild] = true
		default:
			orphans = append(orphans, d.key)
		}
	}
	sort.Strings(orphans)
	for _, o := range orphans {
		t.Errorf("%s: exported, but nothing outside its package references it — delete it, unexport it, or add it to surfaceAllow with the reason", o)
	}
	for key := range surfaceAllow {
		if !used[key] {
			t.Errorf("surfaceAllow[%q] is stale: the name is gone or has a caller now", key)
		}
	}
}

func TestExportedOptionsHaveSetters(t *testing.T) {
	files := parseTree(t)
	var fields []string                // "pkg.Type.Field"
	declarers := map[string][]string{} // field name → "pkg.Type" declaring it
	for _, g := range files {
		pkg := g.surfacePkg()
		if pkg == "" {
			continue
		}
		for _, d := range g.f.Decls {
			gd, ok := d.(*ast.GenDecl)
			if !ok || gd.Tok != token.TYPE {
				continue
			}
			for _, spec := range gd.Specs {
				ts := spec.(*ast.TypeSpec)
				st, ok := ts.Type.(*ast.StructType)
				name := ts.Name.Name
				if !ok || !ts.Name.IsExported() || !(strings.HasSuffix(name, "Config") || strings.HasSuffix(name, "Options")) {
					continue
				}
				for _, f := range st.Fields.List {
					for _, id := range f.Names {
						if id.IsExported() {
							fields = append(fields, pkg+"."+name+"."+id.Name)
							declarers[id.Name] = append(declarers[id.Name], pkg+"."+name)
						}
					}
				}
			}
		}
	}

	set := map[string]bool{} // "pkg.Type.Field", set outside pkg
	for _, g := range files {
		outside := func(pkg string) bool { return g.dir != "internal/"+pkg }
		ast.Inspect(g.f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CompositeLit:
				sel, ok := n.Type.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				pkg := g.pkgOf(sel.X)
				if pkg == "" || !outside(pkg) {
					return true
				}
				for _, el := range n.Elts {
					if kv, ok := el.(*ast.KeyValueExpr); ok {
						if key, ok := kv.Key.(*ast.Ident); ok {
							set[pkg+"."+sel.Sel.Name+"."+key.Name] = true
						}
					}
				}
			case *ast.AssignStmt:
				if n.Tok != token.ASSIGN {
					return true // x.F += n accumulates into a value; it sets nothing
				}
				for _, lhs := range n.Lhs {
					sel, ok := lhs.(*ast.SelectorExpr)
					if !ok || g.pkgOf(sel.X) != "" {
						continue
					}
					imported := false
					for _, typ := range declarers[sel.Sel.Name] {
						pkg, _, _ := strings.Cut(typ, ".")
						imported = imported || g.imports[internalPath+pkg]
					}
					for _, typ := range declarers[sel.Sel.Name] {
						pkg, _, _ := strings.Cut(typ, ".")
						if (g.imports[internalPath+pkg] || !imported) && outside(pkg) {
							set[typ+"."+sel.Sel.Name] = true
						}
					}
				}
			}
			return true
		})
	}

	used := map[string]bool{}
	var unset []string
	for _, f := range fields {
		wild := f[:strings.LastIndex(f, ".")] + ".*"
		switch {
		case set[f]:
		case optionsAllow[f] != "":
			used[f] = true
		case optionsAllow[wild] != "":
			used[wild] = true
		default:
			unset = append(unset, f)
		}
	}
	sort.Strings(unset)
	for _, f := range unset {
		t.Errorf("%s: a setting nothing outside its package sets — make it a constant (a test that needs another value sets an unexported field), or add it to optionsAllow with the reason", f)
	}
	for key := range optionsAllow {
		if !used[key] {
			t.Errorf("optionsAllow[%q] is stale: the field is gone or is set outside its package now", key)
		}
	}
}

// statsAllow lists the counters of exported …Stats structs that nothing
// reads, each with the reason it stays. A key is "pkg.Type.Field".
var statsAllow = map[string]string{}

// TestStatsCountersAreRead: a counter (an exported obs.Counter or
// atomic.Uint64 field of an exported …Stats struct) must be read by non-test
// code or by another package's tests, or be on statsAllow with its reason —
// one nobody reads is an increment on every event for nothing. A field
// counts as read by an `x.Field.Load()` call under the import rule of a
// method call, or by `&x.Field` in its own package's non-test code, which
// hands the counter to code that reads it (dcache's metric families).
func TestStatsCountersAreRead(t *testing.T) {
	files := parseTree(t)
	var counters []string              // "pkg.Type.Field"
	declarers := map[string][]string{} // field name → packages declaring such a counter
	for _, g := range files {
		pkg := g.surfacePkg()
		if pkg == "" {
			continue
		}
		for _, d := range g.f.Decls {
			gd, ok := d.(*ast.GenDecl)
			if !ok || gd.Tok != token.TYPE {
				continue
			}
			for _, spec := range gd.Specs {
				ts := spec.(*ast.TypeSpec)
				st, ok := ts.Type.(*ast.StructType)
				if !ok || !ts.Name.IsExported() || !strings.HasSuffix(ts.Name.Name, "Stats") {
					continue
				}
				for _, f := range st.Fields.List {
					sel, ok := f.Type.(*ast.SelectorExpr)
					if !ok {
						continue
					}
					typ := g.local[sel.X.(*ast.Ident).Name] + "." + sel.Sel.Name
					if typ != internalPath+"obs.Counter" && typ != "sync/atomic.Uint64" {
						continue
					}
					for _, id := range f.Names {
						if id.IsExported() {
							counters = append(counters, pkg+"."+ts.Name.Name+"."+id.Name)
							declarers[id.Name] = append(declarers[id.Name], pkg)
						}
					}
				}
			}
		}
	}

	read := map[string]bool{} // "pkg.Field", read outside pkg's own tests
	for _, g := range files {
		test := strings.HasSuffix(g.path, "_test.go")
		note := func(field string, ownOnly bool) {
			imported := false
			for _, pkg := range declarers[field] {
				imported = imported || g.imports[internalPath+pkg]
			}
			for _, pkg := range declarers[field] {
				own := g.dir == "internal/"+pkg
				if (g.imports[internalPath+pkg] || !imported) && !(test && own) && (own || !ownOnly) {
					read[pkg+"."+field] = true
				}
			}
		}
		ast.Inspect(g.f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				if inner, ok := n.X.(*ast.SelectorExpr); ok && n.Sel.Name == "Load" {
					note(inner.Sel.Name, false)
				}
			case *ast.UnaryExpr:
				if sel, ok := n.X.(*ast.SelectorExpr); ok && n.Op == token.AND {
					note(sel.Sel.Name, true)
				}
			}
			return true
		})
	}

	used := map[string]bool{}
	var unread []string
	for _, c := range counters {
		pkg, rest, _ := strings.Cut(c, ".")
		_, field, _ := strings.Cut(rest, ".")
		switch {
		case read[pkg+"."+field]:
		case statsAllow[c] != "":
			used[c] = true
		default:
			unread = append(unread, c)
		}
	}
	sort.Strings(unread)
	for _, c := range unread {
		t.Errorf("%s: a counter nothing reads but its own package's tests — delete it, or add it to statsAllow with the reason", c)
	}
	for key := range statsAllow {
		if !used[key] {
			t.Errorf("statsAllow[%q] is stale: the counter is gone or is read now", key)
		}
	}
}
