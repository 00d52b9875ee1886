package store

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestStoreBlocksOnlyInJournal pins the latency rule of the store's
// locks: critical sections are O(work), never O(I/O). The rule holds
// for the whole package, so the test reads the package's own source:
// no non-test file may import os, time, syscall or net (or any os/… or
// net/… package), send on or receive from a channel, or select. All of
// the store's I/O goes through internal/journal. Calls into other
// packages while a lock is held are not checked for blocking.
func TestStoreBlocksOnlyInJournal(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range f.Imports {
			path, _ := strconv.Unquote(imp.Path.Value)
			switch root, _, _ := strings.Cut(path, "/"); root {
			case "os", "time", "syscall", "net":
				t.Errorf("%s: imports %q", fset.Position(imp.Pos()), path)
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SendStmt:
				t.Errorf("%s: channel send", fset.Position(n.Pos()))
			case *ast.UnaryExpr:
				if n.Op == token.ARROW {
					t.Errorf("%s: channel receive", fset.Position(n.Pos()))
				}
			case *ast.SelectStmt:
				t.Errorf("%s: select", fset.Position(n.Pos()))
			}
			return true
		})
	}
}
