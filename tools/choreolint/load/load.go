// Package load parses and type-checks one package for analysis. The
// vettool driver hands it the file list and export-data map from the
// go command's JSON config. Imports are satisfied from compiled export
// data (the gc importer with a lookup hook), never from source, so
// loading a package costs one parse + one typecheck regardless of how
// deep its import tree is.
package load

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
)

// A Unit is one loaded, type-checked package.
type Unit struct {
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	// TypeErrors collects type-checking problems; analysis over a
	// package that failed to check is unreliable, so drivers treat a
	// non-empty list as fatal unless told otherwise.
	TypeErrors []error
}

// Config describes the compilation unit to load.
type Config struct {
	// ImportPath is the package path under analysis.
	ImportPath string
	// GoFiles are the package's source files.
	GoFiles []string
	// ImportMap resolves import paths to package paths (vendoring);
	// identity for unlisted paths.
	ImportMap map[string]string
	// PackageFile maps package paths to their export-data files.
	PackageFile map[string]string
	// GoVersion is the language version to check against ("go1.24");
	// empty means the toolchain default.
	GoVersion string
}

// importerFunc adapts a function to types.Importer.
type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// Package loads the unit: parse with comments (analyzers read
// directives), then type-check against the export data.
func Package(cfg *Config) (*Unit, error) {
	u := &Unit{Fset: token.NewFileSet()}
	for _, name := range cfg.GoFiles {
		f, err := parser.ParseFile(u.Fset, name, nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		u.Files = append(u.Files, f)
	}
	compilerImporter := importer.ForCompiler(u.Fset, "gc", func(path string) (io.ReadCloser, error) {
		file, ok := cfg.PackageFile[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	})
	tc := &types.Config{
		Importer: importerFunc(func(importPath string) (*types.Package, error) {
			path := importPath
			if mapped, ok := cfg.ImportMap[importPath]; ok {
				path = mapped
			}
			return compilerImporter.Import(path)
		}),
		Sizes:     types.SizesFor("gc", build.Default.GOARCH),
		GoVersion: cfg.GoVersion,
		Error:     func(err error) { u.TypeErrors = append(u.TypeErrors, err) },
	}
	u.TypesInfo = &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Implicits:  map[ast.Node]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	// Check reports problems through tc.Error; the returned error
	// duplicates the first one, so it is deliberately dropped here and
	// surfaced via TypeErrors.
	u.Pkg, _ = tc.Check(cfg.ImportPath, u.Fset, u.Files, u.TypesInfo)
	return u, nil
}
