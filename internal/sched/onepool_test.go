package sched

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// eachSource parses every non-test Go file under root (skipping testdata
// and hidden directories) and hands it to visit with its path relative
// to root. It fails the test when root holds no source at all, so a
// moved root cannot pass vacuously.
func eachSource(t *testing.T, root string, visit func(rel string, fset *token.FileSet, f *ast.File)) {
	t.Helper()
	fset := token.NewFileSet()
	files := 0
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		files++
		visit(filepath.ToSlash(rel), fset, f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if files == 0 {
		t.Fatalf("no source files found under %s", root)
	}
}

// goAllowed names the internal packages that may start goroutines: this
// one (the pool itself) and the service's long-lived loops — the job
// manager's workers and sweeper, and the pull-worker's heartbeat.
var goAllowed = map[string]bool{"sched": true, "jobs": true, "worker": true}

// TestOnePool keeps every parallel loop of the engine on For: no
// non-test file under internal/ outside goAllowed holds a go statement.
func TestOnePool(t *testing.T) {
	eachSource(t, "..", func(rel string, fset *token.FileSet, f *ast.File) {
		if goAllowed[strings.Split(rel, "/")[0]] {
			return
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if g, ok := n.(*ast.GoStmt); ok {
				t.Errorf("%s: go statement outside sched.For; run the loop on sched.Default().For", fset.Position(g.Pos()))
			}
			return true
		})
	})
}

// TestNoInit keeps the module's tables closed and explicit: no non-test
// file anywhere in the module declares a func init, so nothing is
// registered as a side effect of an import.
func TestNoInit(t *testing.T) {
	eachSource(t, filepath.Join("..", ".."), func(_ string, fset *token.FileSet, f *ast.File) {
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil && fn.Name.Name == "init" {
				t.Errorf("%s: func init; build the table as a literal instead", fset.Position(fn.Pos()))
			}
		}
	})
}
