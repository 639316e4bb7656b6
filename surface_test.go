package diesel

// Exported-surface test: an exported func or method of an internal/
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
// Matching is syntactic (go/parser, no type checking). A func counts as
// referenced by `pkg.Func` under the file's import name for its package. A
// method call names no package, so an `x.Method(args)` selector (x not an
// imported package) counts for the packages that declare a Method taking
// that many arguments and that the file imports — or, when it imports none
// of them, for all that declare one: the value then came through another
// package's hands.

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
	"dcache.SharedCache.ReclaimCold": "the housekeeping sweep for cold datasets, RAM and spill level; no binary schedules it yet, " +
		"and deleting it takes tier.EvictGroups and spill.Log.Drop with it: a change of its own",
}

const internalPath = "diesel/internal/"

func TestExportedSurfaceHasCallers(t *testing.T) {
	type decl struct{ pkg, name, key string }
	type source struct {
		dir     string
		imports map[string]bool  // import paths
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
		src := source{dir: filepath.ToSlash(filepath.Dir(path)), imports: map[string]bool{}, methods: map[string][]int{}}
		src.imports["diesel/"+src.dir] = true // a file sees its own package's methods
		local := map[string]string{}          // local name → import path
		for _, im := range f.Imports {
			p := strings.Trim(im.Path.Value, `"`)
			name := p[strings.LastIndex(p, "/")+1:]
			if im.Name != nil {
				name = im.Name.Name
			}
			local[name], src.imports[p] = p, true
		}
		args := map[ast.Expr]int{} // the selector of a call → how many arguments the call passes
		ast.Inspect(f, func(n ast.Node) bool {
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
				if x, ok := n.X.(*ast.Ident); ok && local[x.Name] != "" {
					funcRefs[local[x.Name]+"."+n.Sel.Name] = true
				} else if passed, called := args[n]; called {
					src.methods[n.Sel.Name] = append(src.methods[n.Sel.Name], passed)
				} else {
					src.methods[n.Sel.Name] = append(src.methods[n.Sel.Name], -1) // a method value
				}
			}
			return true
		})
		sources = append(sources, src)

		pkg, ok := strings.CutPrefix(src.dir, "internal/")
		if !ok || strings.Contains(pkg, "/") || frozenPackages[pkg] || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		for _, d := range f.Decls {
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
		return nil
	})
	if err != nil {
		t.Fatal(err)
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
