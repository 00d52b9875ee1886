package summary

import (
	"go/ast"
	"go/types"
)

// Graph is the static intra-package call graph: declared functions and
// methods and the same-package functions each one calls directly.
// Function literals are attributed to the declaration they appear in:
// a goroutine or closure body inside f counts as f's calls, the
// conservative direction for every check built on the graph. Calls
// through an interface resolve with Implementers.
type Graph struct {
	// Decls maps each declared function object to its syntax.
	Decls map[*types.Func]*ast.FuncDecl
	// Calls maps each declared function to the distinct same-package
	// functions it calls directly (only those with a declaration).
	Calls map[*types.Func][]*types.Func
}

// BuildGraph constructs the package's call graph from its files.
func BuildGraph(files []*ast.File, info *types.Info) *Graph {
	g := &Graph{
		Decls: map[*types.Func]*ast.FuncDecl{},
		Calls: map[*types.Func][]*types.Func{},
	}
	for _, file := range files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			if fn, ok := info.Defs[fd.Name].(*types.Func); ok {
				g.Decls[fn] = fd
			}
		}
	}
	for fn, fd := range g.Decls {
		seen := map[*types.Func]bool{}
		ast.Inspect(fd, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			var id *ast.Ident
			switch fun := ast.Unparen(call.Fun).(type) {
			case *ast.Ident:
				id = fun
			case *ast.SelectorExpr:
				id = fun.Sel
			default:
				return true
			}
			callee, ok := info.Uses[id].(*types.Func)
			if !ok {
				return true
			}
			callee = callee.Origin()
			if _, declared := g.Decls[callee]; declared && !seen[callee] {
				seen[callee] = true
				g.Calls[fn] = append(g.Calls[fn], callee)
			}
			return true
		})
	}
	return g
}

// Implementers returns the declared same-package methods that may
// stand behind a call to the interface method iface: same name,
// receiver type implementing the interface. Nil for a non-interface
// method.
func (g *Graph) Implementers(ifaceMethod *types.Func) []*types.Func {
	recv := ifaceMethod.Type().(*types.Signature).Recv()
	if recv == nil || !types.IsInterface(recv.Type()) {
		return nil
	}
	iface, _ := recv.Type().Underlying().(*types.Interface)
	if iface == nil {
		return nil
	}
	var out []*types.Func
	for fn := range g.Decls {
		r := fn.Type().(*types.Signature).Recv()
		if r == nil || fn.Name() != ifaceMethod.Name() {
			continue
		}
		rt := r.Type()
		if types.Implements(rt, iface) || types.Implements(types.NewPointer(rt), iface) {
			out = append(out, fn)
		}
	}
	return out
}
