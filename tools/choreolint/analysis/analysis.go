// Package analysis is the minimal analyzer framework choreolint is
// built on: an Analyzer runs over one type-checked package and reports
// position-anchored diagnostics. It mirrors the shape of
// golang.org/x/tools/go/analysis — Name/Doc/Run, a Pass carrying the
// package and its type information, Reportf — but is self-contained on
// the standard library, because this module deliberately has no
// external dependencies. The driver (the vettool protocol in package
// main) loads and type-checks packages, runs the analyzers and surfaces
// their diagnostics. There is no suppression directive: a finding is
// fixed, or the rule is wrong.
//
// Marker directives (//choreolint:frozen, //choreolint:builder,
// //choreolint:hotlock) opt declarations into a check; analyzers read
// them through the summary engine's marker tables.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"repro/tools/choreolint/analysis/summary"
)

// An Analyzer checks one invariant over a single package.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics.
	Name string
	// Doc is the one-paragraph description shown by `choreolint help`.
	Doc string
	// Run performs the check, reporting findings through pass.Reportf.
	// The returned error aborts the whole run (reserved for internal
	// failures, not findings).
	Run func(pass *Pass) error
}

// A Pass is one analyzer's view of one type-checked package.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	// Summary carries the package's interprocedural function
	// summaries, call graph, and marker tables (see
	// tools/choreolint/analysis/summary). Drivers compute it once per
	// package and share it across analyzers.
	Summary *summary.Info

	diags []Diagnostic
}

// A Diagnostic is one finding.
type Diagnostic struct {
	Pos      token.Pos
	Analyzer string
	Message  string
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.diags = append(p.diags, Diagnostic{
		Pos:      pos,
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Run executes each analyzer over the package and returns the
// surviving diagnostics: findings in _test.go files are dropped (the
// invariants govern production code; tests violate them deliberately,
// such as raw statuses in fixtures), the rest come back in
// deterministic order: sorted by file, line, column, analyzer name,
// then message, so repeated runs and CI logs diff cleanly.
func Run(analyzers []*Analyzer, fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info, sum *summary.Info) ([]Diagnostic, error) {
	var out []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{Analyzer: a, Fset: fset, Files: files, Pkg: pkg, TypesInfo: info, Summary: sum}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %w", a.Name, err)
		}
		for _, d := range pass.diags {
			if strings.HasSuffix(fset.Position(d.Pos).Filename, "_test.go") {
				continue
			}
			out = append(out, d)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		pi, pj := fset.Position(out[i].Pos), fset.Position(out[j].Pos)
		switch {
		case pi.Filename != pj.Filename:
			return pi.Filename < pj.Filename
		case pi.Line != pj.Line:
			return pi.Line < pj.Line
		case pi.Column != pj.Column:
			return pi.Column < pj.Column
		case out[i].Analyzer != out[j].Analyzer:
			return out[i].Analyzer < out[j].Analyzer
		default:
			return out[i].Message < out[j].Message
		}
	})
	return out, nil
}

// CalleeOf resolves the object a call expression invokes, unwrapping
// parentheses; nil when the callee is not a named function or method
// (a function literal, a conversion, a call through an interface
// value resolves to the interface method).
func CalleeOf(info *types.Info, call *ast.CallExpr) types.Object {
	fun := ast.Unparen(call.Fun)
	switch fn := fun.(type) {
	case *ast.Ident:
		return info.Uses[fn]
	case *ast.SelectorExpr:
		return info.Uses[fn.Sel]
	}
	return nil
}

// ReceiverField returns the name of the struct field a method call's
// receiver resolves to: for `s.persistMu.RLock()` the call.Fun is the
// selector `s.persistMu.RLock`, whose X (`s.persistMu`) selects the
// field persistMu. Empty when the receiver is not a field selection or
// a plain variable.
func ReceiverField(info *types.Info, call *ast.CallExpr) string {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	switch recv := ast.Unparen(sel.X).(type) {
	case *ast.SelectorExpr:
		if obj, ok := info.Uses[recv.Sel].(*types.Var); ok && obj.IsField() {
			return obj.Name()
		}
	case *ast.Ident:
		if obj, ok := info.Uses[recv].(*types.Var); ok {
			return obj.Name()
		}
	}
	return ""
}

// ReceiverFieldVar resolves a method call's receiver to the struct
// field it selects — the variable object, not just its name, so two
// same-named fields on different structs stay distinct. Nil when the
// receiver is not a field selection.
func ReceiverFieldVar(info *types.Info, call *ast.CallExpr) *types.Var {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	if recv, ok := ast.Unparen(sel.X).(*ast.SelectorExpr); ok {
		if obj, ok := info.Uses[recv.Sel].(*types.Var); ok && obj.IsField() {
			return obj
		}
	}
	return nil
}
