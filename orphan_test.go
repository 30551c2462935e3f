package repro_test

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// orphanKeep lists the functions and methods under internal/ that no
// non-test code uses but that stay, each with the reason. A key is the
// package's directory under internal/, then the receiver's type for a
// method, then the name.
var orphanKeep = map[string]string{
	"core.Engine.Object":                    "public as repro.Engine.Object",
	"core.Engine.Point":                     "public as repro.Engine.Point",
	"core.Engine.PointIndex":                "public as repro.Engine.PointIndex",
	"core.Engine.UncertainIndex":            "public as repro.Engine.UncertainIndex",
	"core.ObjectQualifier.QualifyThreshold": "public as repro.ObjectQualifier.QualifyThreshold",
	"core.Snapshot.NumPoints":               "public as repro.Snapshot.NumPoints",
	"core.Snapshot.NumUncertain":            "public as repro.Snapshot.NumUncertain",
	"core.Snapshot.Object":                  "public as repro.Snapshot.Object",
	"core.Snapshot.Point":                   "public as repro.Snapshot.Point",
	"core.Snapshot.PublishedAt":             "public as repro.Snapshot.PublishedAt",
	"core.UpdateReport.Dirty":               "public as repro.UpdateReport.Dirty",
	"core.UpdateReport.Touches":             "public as repro.UpdateReport.Touches",
	"geom.Point.DistTo":                     "public as repro.Point.DistTo",
	"geom.Point.SqDistTo":                   "public as repro.Point.SqDistTo",
	"geom.Rect.Margin":                      "public as repro.Rect.Margin",
	"geom.Rect.MinkowskiSum":                "public as repro.Rect.MinkowskiSum",
	"geom.Rect.ToPolygon":                   "public as repro.Rect.ToPolygon",
	"monitor.Delta.Empty":                   "public as repro.Delta.Empty",
	"monitor.Subscription.Close":            "public as repro.Subscription.Close",
	"monitor.Subscription.Guard":            "public as repro.Subscription.Guard",
	"core.RequestError.Unwrap":              "the interface method errors.Is and errors.As call",
	"serve.unknownFieldError.Is":            "the interface method errors.Is calls",
	"storage.BufferPool.Flush":              "the storage tests write dirty pages back through it without evicting them; code outside tests flushes only through Clear, which also evicts",
	"index/rtree.MemNodeStore.NumNodes":     "shared test fixture: the rtree and core tests count live nodes with it",
	"obs.Lint":                              "shared test fixture: the obs, core, serve and shard exposition tests lint with it",
	"pdf.MustUniform":                       "shared test fixture: the uniform pdf of most packages' tests",
	"pdf.NewHistogramMarginal":              "constructor of a pdf kind the codec reads; the pdf, core and monitor tests build theirs with it",
	"pdf.NewMixture":                        "constructor of a pdf kind the codec reads; the pdf, core and monitor tests build theirs with it",
}

// TestNoOrphanFunctions is the removal queue's scan: it type-checks
// every non-test Go file of the root module and of the benchmark/
// module (reading both, editing neither; the standard library through
// importer.Default) and fails when a function or method declared in
// non-test code under internal/ is used nowhere in non-test code — dead
// code, or code kept alive only by its tests — unless orphanKeep lists
// it. Uses are resolved to objects, so a dead method whose name a live
// one shares is found; a method whose type satisfies an interface with
// that method counts as used, since a call through the interface names
// no object of its own. A keep-list entry that is used again fails too,
// so the list stays exactly what the scan finds.
func TestNoOrphanFunctions(t *testing.T) {
	fset := token.NewFileSet()
	files := map[string][]*ast.File{} // by import path
	for module, root := range map[string]string{"repro": ".", "repro/benchmark": "benchmark"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() {
				if name := d.Name(); path != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata" || name == "benchmark") {
					return filepath.SkipDir
				}
				return nil
			}
			if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return nil
			}
			f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			rel, _ := filepath.Rel(root, filepath.Dir(path))
			imp := strings.TrimSuffix(module+"/"+filepath.ToSlash(rel), "/.")
			files[imp] = append(files[imp], f)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}

	info := &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}, Types: map[ast.Expr]types.TypeAndValue{}}
	checked := map[string]*types.Package{}
	std := importer.Default()
	var imp importerFunc
	imp = func(path string) (*types.Package, error) {
		if pkg, ok := checked[path]; ok {
			return pkg, nil
		}
		if _, ok := files[path]; !ok {
			return std.Import(path)
		}
		conf := types.Config{Importer: imp}
		pkg, err := conf.Check(path, fset, files[path], info)
		checked[path] = pkg
		return pkg, err
	}
	for path := range files {
		if _, err := imp(path); err != nil {
			t.Fatalf("type-checking %s: %v", path, err)
		}
	}

	used := map[*types.Func]bool{}
	for _, obj := range info.Uses {
		if fn, ok := obj.(*types.Func); ok {
			used[fn.Origin()] = true
		}
	}
	// Every interface a method could be called through: those the
	// packages in play declare, and those the checked code spells out.
	ifaces := map[string][]*types.Interface{} // by method name
	addIface := func(typ types.Type) {
		if it, ok := typ.Underlying().(*types.Interface); ok && it.IsMethodSet() {
			for i := range it.NumMethods() {
				ifaces[it.Method(i).Name()] = append(ifaces[it.Method(i).Name()], it)
			}
		}
	}
	addIface(types.Universe.Lookup("error").Type())
	seen := map[*types.Package]bool{}
	var declared func(pkgs []*types.Package)
	declared = func(pkgs []*types.Package) {
		for _, pkg := range pkgs {
			if seen[pkg] {
				continue
			}
			seen[pkg] = true
			for _, name := range pkg.Scope().Names() {
				if tn, ok := pkg.Scope().Lookup(name).(*types.TypeName); ok && !tn.IsAlias() {
					if named, ok := tn.Type().(*types.Named); !ok || named.TypeParams() == nil {
						addIface(tn.Type())
					}
				}
			}
			declared(pkg.Imports())
		}
	}
	for _, pkg := range checked {
		declared([]*types.Package{pkg})
	}
	for _, tv := range info.Types {
		addIface(tv.Type)
	}
	satisfies := func(fn *types.Func) bool {
		recv := fn.Type().(*types.Signature).Recv().Type()
		if ptr, ok := recv.(*types.Pointer); ok {
			recv = ptr.Elem()
		}
		if named, ok := recv.(*types.Named); !ok || named.TypeParams() != nil {
			return false
		}
		return slices.ContainsFunc(ifaces[fn.Name()], func(it *types.Interface) bool {
			return types.Implements(recv, it) || types.Implements(types.NewPointer(recv), it)
		})
	}

	var orphans []string
	decls := 0
	for path, fs := range files {
		dir, ok := strings.CutPrefix(path, "repro/internal/")
		if !ok {
			continue
		}
		for _, f := range fs {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Name.Name == "init" || fd.Name.Name == "_" {
					continue
				}
				decls++
				fn := info.Defs[fd.Name].(*types.Func)
				if used[fn] || fd.Recv != nil && satisfies(fn) {
					continue
				}
				key := dir + "." + fd.Name.Name
				if fd.Recv != nil {
					key = dir + "." + recvType(fd.Recv.List[0].Type) + "." + fd.Name.Name
				}
				orphans = append(orphans, key)
			}
		}
	}
	if decls < 500 {
		t.Fatalf("the scan found %d declarations under internal/; is it run from the repository root?", decls)
	}
	slices.Sort(orphans)
	for _, key := range orphans {
		if _, ok := orphanKeep[key]; !ok {
			t.Errorf("%s is used by no non-test code: delete it, or keep-list it with a reason", key)
		}
	}
	for key := range orphanKeep {
		if !slices.Contains(orphans, key) {
			t.Errorf("keep-list entry %s is used by non-test code now (or gone): drop the entry", key)
		}
	}
}

// importerFunc is a types.Importer.
type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// recvType is the name of a method receiver's type, its pointer and
// type parameters dropped.
func recvType(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.StarExpr:
		return recvType(x.X)
	case *ast.IndexExpr:
		return recvType(x.X)
	case *ast.IndexListExpr:
		return recvType(x.X)
	case *ast.Ident:
		return x.Name
	}
	return "?"
}
