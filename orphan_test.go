package repro_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// orphanKeep lists the functions and methods under internal/ that no
// non-test code names but that stay, each with the reason. A key is
// the package's directory under internal/, then the receiver's type
// for a method, then the name.
var orphanKeep = map[string]string{
	"core.Engine.DeletePoint":               "public as repro.Engine.DeletePoint",
	"core.Engine.InsertPoint":               "public as repro.Engine.InsertPoint",
	"core.Engine.MovePoint":                 "public as repro.Engine.MovePoint",
	"core.Engine.PointIndex":                "public as repro.Engine.PointIndex",
	"core.Engine.UncertainIndex":            "public as repro.Engine.UncertainIndex",
	"core.ObjectQualifier.QualifyThreshold": "public as repro.ObjectQualifier.QualifyThreshold",
	"core.Snapshot.PublishedAt":             "public as repro.Snapshot.PublishedAt",
	"core.UpdateReport.Dirty":               "public as repro.UpdateReport.Dirty",
	"geom.Point.DistTo":                     "public as repro.Point.DistTo",
	"geom.Point.SqDistTo":                   "public as repro.Point.SqDistTo",
	"geom.Rect.Margin":                      "public as repro.Rect.Margin",
	"geom.Rect.MinkowskiSum":                "public as repro.Rect.MinkowskiSum",
	"geom.Rect.ToPolygon":                   "public as repro.Rect.ToPolygon",
	"monitor.Subscription.Guard":            "public as repro.Subscription.Guard",
	"core.RequestError.Unwrap":              "the interface method errors.Is and errors.As call",
	"index/rtree.MemNodeStore.NumNodes":     "shared test fixture: the rtree and core tests count live nodes with it",
	"obs.Lint":                              "shared test fixture: the obs, core, serve and shard exposition tests lint with it",
	"pdf.MustUniform":                       "shared test fixture: the uniform pdf of most packages' tests",
	"pdf.NewHistogramMarginal":              "constructor of a pdf kind the codec reads; the pdf, core and monitor tests build theirs with it",
	"pdf.NewMixture":                        "constructor of a pdf kind the codec reads; the pdf, core and monitor tests build theirs with it",
}

// TestNoOrphanFunctions is the removal queue's scan: it parses every
// non-test Go file of the root module and of the benchmark/ module
// (reading both, editing neither) and fails when a function or method
// declared in non-test code under internal/ is named nowhere else in
// non-test code — dead code, or code kept alive only by its tests —
// unless orphanKeep lists it. A keep-list entry that is named again
// fails too, so the list stays exactly what the scan finds.
func TestNoOrphanFunctions(t *testing.T) {
	type decl struct {
		key  string
		name string
		pos  token.Pos
	}
	fset := token.NewFileSet()
	var decls []decl
	uses := map[string][]token.Pos{} // every identifier of non-test code
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != "." && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
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
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				uses[id.Name] = append(uses[id.Name], id.Pos())
			}
			return true
		})
		dir, ok := strings.CutPrefix(filepath.ToSlash(filepath.Dir(path)), "internal/")
		if !ok {
			return nil
		}
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Name.Name == "init" || fd.Name.Name == "_" {
				continue
			}
			key := dir + "." + fd.Name.Name
			if fd.Recv != nil {
				key = dir + "." + recvType(fd.Recv.List[0].Type) + "." + fd.Name.Name
			}
			decls = append(decls, decl{key, fd.Name.Name, fd.Name.Pos()})
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(decls) < 500 {
		t.Fatalf("the scan found %d declarations under internal/; is it run from the repository root?", len(decls))
	}

	var orphans []string
	for _, d := range decls {
		if !slices.ContainsFunc(uses[d.name], func(p token.Pos) bool { return p != d.pos }) {
			orphans = append(orphans, d.key)
		}
	}
	slices.Sort(orphans)
	for _, key := range orphans {
		if _, ok := orphanKeep[key]; !ok {
			t.Errorf("%s is named by no non-test code: delete it, or keep-list it with a reason", key)
		}
	}
	for key := range orphanKeep {
		if !slices.Contains(orphans, key) {
			t.Errorf("keep-list entry %s is named by non-test code now (or gone): drop the entry", key)
		}
	}
}

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
