// Package errenvelope keeps the HTTP error surface uniform. The /v2/
// API contract promises every error is a machine-readable
// {code, message, details} envelope built from the Code* constants,
// produced only by the writeErrorV2 helper in internal/server. A
// handler that calls http.Error, or hand-writes an error status, ships
// a plain-text or ad-hoc body that clients branching on envelope codes
// cannot parse.
//
// The analyzer self-gates: it only checks packages that declare a
// writeErrorV2 function — that declaration is what makes a package an
// envelope-owning HTTP surface. Inside one, it reports:
//
//   - any call to net/http.Error;
//   - any WriteHeader call with a constant status >= 400 outside the
//     envelope/serialization helpers themselves (writeJSON,
//     writeErrorV2) — error statuses must flow through the envelope.
package errenvelope

import (
	"go/ast"
	"go/constant"

	"repro/tools/choreolint/analysis"
)

// Analyzer reports error responses that bypass the envelope helpers.
var Analyzer = &analysis.Analyzer{
	Name: "errenvelope",
	Doc:  "HTTP errors go through writeErrorV2, never http.Error or raw error statuses",
	Run:  run,
}

// helperNames are the functions allowed to write error statuses: the
// envelope writers and the JSON serializer they share.
var helperNames = map[string]bool{"writeJSON": true, "writeErrorV2": true}

func run(pass *analysis.Pass) error {
	if pass.Pkg.Scope().Lookup("writeErrorV2") == nil {
		return nil
	}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			inHelper := helperNames[fd.Name.Name]
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if analysis.IsPkgCall(pass.TypesInfo, call, "net/http", "Error") {
					pass.Reportf(call.Pos(), "http.Error bypasses the error envelope; use writeErrorV2")
					return true
				}
				if !inHelper {
					checkWriteHeader(pass, call)
				}
				return true
			})
		}
	}
	return nil
}

// checkWriteHeader reports WriteHeader(status) with a constant error
// status outside the helpers.
func checkWriteHeader(pass *analysis.Pass, call *ast.CallExpr) {
	obj := analysis.CalleeOf(pass.TypesInfo, call)
	if obj == nil || obj.Pkg() == nil || obj.Pkg().Path() != "net/http" || obj.Name() != "WriteHeader" {
		return
	}
	if len(call.Args) != 1 {
		return
	}
	tv, ok := pass.TypesInfo.Types[call.Args[0]]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.Int {
		return
	}
	if status, ok := constant.Int64Val(tv.Value); ok && status >= 400 {
		pass.Reportf(call.Pos(), "WriteHeader(%d) writes an error status outside the envelope helpers; use writeErrorV2", status)
	}
}
