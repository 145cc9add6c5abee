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

// goAllowed names the internal packages that may start goroutines: this
// one (the pool itself) and the service's long-lived loops — the job
// manager's workers and sweeper, and the pull-worker's heartbeat.
var goAllowed = map[string]bool{"sched": true, "jobs": true, "worker": true}

// TestOnePool keeps every parallel loop of the engine on For: no
// non-test file under internal/ outside goAllowed holds a go statement.
func TestOnePool(t *testing.T) {
	root := ".."
	fset := token.NewFileSet()
	files := 0
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if d.Name() == "testdata" {
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
		if goAllowed[strings.Split(filepath.ToSlash(rel), "/")[0]] {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		files++
		ast.Inspect(f, func(n ast.Node) bool {
			if g, ok := n.(*ast.GoStmt); ok {
				t.Errorf("%s: go statement outside sched.For; run the loop on sched.Default().For", fset.Position(g.Pos()))
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if files == 0 {
		t.Fatal("no source files found under internal/")
	}
}
