package analysis

import (
	"go/ast"
	"go/token"
	"strings"
)

// Suppression and marker directives.
//
// A finding is silenced with a staticcheck-style ignore directive on
// the flagged line, the line directly above it, or — when the
// directive documents or directly precedes a declaration, struct
// field, or simple statement — anywhere within that construct's span:
//
//	//lint:ignore choreolint/lockorder reason the checkpoint cannot run here
//	s.persistMu.RLock()
//
// The span rule is what makes multi-line constructs suppressible: a
// directive in a function's doc comment covers the whole (possibly
// wrapped) signature, a directive above a struct field covers the
// field even when its own doc comment pushes the field line further
// down, and a directive above a multi-line assignment or call
// statement covers its continuation lines. Spans stay narrow on
// purpose — a function directive covers the signature, never the
// body, so one directive cannot blanket-silence a whole function.
//
// The directive names one analyzer (with or without the "choreolint/"
// prefix), a comma-separated list, or "*" for all, and must carry a
// reason — a bare //lint:ignore is itself ignored, so suppressions
// stay justified. Marker directives (//choreolint:frozen,
// //choreolint:builder, //choreolint:hotlock, //choreolint:allocfree)
// are the opposite: they opt declarations into a check; analyzers read
// them through the summary engine's marker tables.

// ignoreRange is one directive's coverage: the line span it silences
// and the analyzers it names.
type ignoreRange struct {
	from, to int
	names    []string
}

// ignoreSet records each file's directive ranges.
type ignoreSet map[string][]ignoreRange

// parseIgnores collects every //lint:ignore directive and computes its
// line span: its own line and the following one always, widened to the
// full span of the syntax construct it documents or directly precedes.
func parseIgnores(fset *token.FileSet, files []*ast.File) ignoreSet {
	set := ignoreSet{}
	for _, file := range files {
		filename := ""
		names := map[int][]string{} // directive line → analyzer names
		for _, cg := range file.Comments {
			for _, c := range cg.List {
				rest, ok := strings.CutPrefix(c.Text, "//lint:ignore ")
				if !ok {
					continue
				}
				fields := strings.Fields(rest)
				if len(fields) < 2 {
					continue // no reason given: not a valid suppression
				}
				pos := fset.Position(c.Pos())
				filename = pos.Filename
				names[pos.Line] = append(names[pos.Line], strings.Split(fields[0], ",")...)
			}
		}
		if len(names) == 0 {
			continue
		}
		ends := map[int]int{} // directive line → last covered line
		for line := range names {
			ends[line] = line + 1
		}
		widenIgnores(fset, file, names, ends)
		for line, ns := range names {
			set[filename] = append(set[filename], ignoreRange{from: line, to: ends[line], names: ns})
		}
	}
	return set
}

// widenIgnores extends each directive's coverage over the syntax
// construct it is attached to. A directive is attached to a node when
// it sits anywhere in the node's doc comment, on the line directly
// above the node, or on the node's first line (trailing comment).
func widenIgnores(fset *token.FileSet, file *ast.File, names map[int][]string, ends map[int]int) {
	attach := func(doc *ast.CommentGroup, start, end token.Pos) {
		startLine := fset.Position(start).Line
		endLine := fset.Position(end).Line
		claim := func(line int) {
			if _, ok := names[line]; ok && endLine > ends[line] {
				ends[line] = endLine
			}
		}
		claim(startLine - 1)
		claim(startLine)
		if doc != nil {
			for _, c := range doc.List {
				claim(fset.Position(c.Pos()).Line)
			}
		}
	}
	ast.Inspect(file, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncDecl:
			// The signature only: a directive on a function must not
			// silence findings throughout its body.
			attach(x.Doc, x.Pos(), x.Type.End())
		case *ast.GenDecl:
			attach(x.Doc, x.Pos(), x.End())
		case *ast.TypeSpec:
			attach(x.Doc, x.Pos(), x.End())
		case *ast.ValueSpec:
			attach(x.Doc, x.Pos(), x.End())
		case *ast.Field:
			attach(x.Doc, x.Pos(), x.End())
		case *ast.KeyValueExpr:
			attach(nil, x.Pos(), x.End())
		case *ast.AssignStmt, *ast.ExprStmt, *ast.SendStmt, *ast.IncDecStmt,
			*ast.DeferStmt, *ast.GoStmt, *ast.ReturnStmt, *ast.DeclStmt:
			// Simple statements span only their own expressions, so the
			// widening covers wrapped calls and literals without
			// swallowing a block.
			attach(nil, n.Pos(), n.End())
		}
		return true
	})
}

// suppresses reports whether a directive covering posn's line names
// analyzer (or "*").
func (s ignoreSet) suppresses(posn token.Position, analyzer string) bool {
	for _, r := range s[posn.Filename] {
		if posn.Line < r.from || posn.Line > r.to {
			continue
		}
		for _, name := range r.names {
			name = strings.TrimPrefix(name, "choreolint/")
			if name == "*" || name == analyzer {
				return true
			}
		}
	}
	return false
}
