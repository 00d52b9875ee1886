package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// marker is the doc-comment directive that puts a function under the
// gate.
const marker = "//choreolint:allocfree"

// markedFunc is one //choreolint:allocfree declaration: the file and
// the inclusive line range of the whole declaration (doc comment
// excluded — an escape diagnostic can only point into the signature or
// body).
type markedFunc struct {
	Name     string
	File     string // absolute path
	From, To int    // inclusive line range
}

// Finding is one allocation inside a marked function, formatted like a
// choreolint diagnostic so the same CI problem matcher picks it up.
type Finding struct {
	File   string // as printed by the compiler (module-relative)
	Line   int
	Col    int
	Func   string
	Detail string // the compiler's message, e.g. "make([]int, n) escapes to heap"
}

func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: allocation in %s function %s: %s [allocgate]",
		f.File, f.Line, f.Col, marker, f.Func, f.Detail)
}

// listedPackage is the slice of `go list -json` output the gate reads.
type listedPackage struct {
	Dir        string
	ImportPath string
	GoFiles    []string
	Module     *struct{ Dir string }
}

// Check gates the packages matched by patterns and returns the
// findings sorted by file, line, column.
func Check(patterns []string) ([]Finding, error) {
	pkgs, err := listPackages(patterns)
	if err != nil {
		return nil, err
	}
	var findings []Finding
	for _, pkg := range pkgs {
		marked, err := markedFuncs(pkg)
		if err != nil {
			return nil, err
		}
		if len(marked) == 0 {
			continue
		}
		root := ""
		if pkg.Module != nil {
			root = pkg.Module.Dir
		}
		out, err := escapeOutput(pkg.ImportPath, root)
		if err != nil {
			return nil, err
		}
		findings = append(findings, matchEscapes(out, pkg.Dir, marked)...)
	}
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return a.Col < b.Col
	})
	return findings, nil
}

func listPackages(patterns []string) ([]listedPackage, error) {
	args := append([]string{"list", "-json=Dir,ImportPath,GoFiles,Module"}, patterns...)
	cmd := exec.Command("go", args...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list %s: %v\n%s", strings.Join(patterns, " "), err, stderr.String())
	}
	var pkgs []listedPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listedPackage
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("decoding go list output: %v", err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// markedFuncs parses one package's files and returns its
// //choreolint:allocfree declarations.
func markedFuncs(pkg listedPackage) ([]markedFunc, error) {
	var out []markedFunc
	fset := token.NewFileSet()
	for _, name := range pkg.GoFiles {
		path := filepath.Join(pkg.Dir, name)
		file, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("parsing %s: %v", path, err)
		}
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Doc == nil {
				continue
			}
			hit := false
			for _, c := range fd.Doc.List {
				if strings.TrimSpace(c.Text) == marker {
					hit = true
					break
				}
			}
			if !hit {
				continue
			}
			name := fd.Name.Name
			if fd.Recv != nil && len(fd.Recv.List) == 1 {
				name = recvTypeName(fd.Recv.List[0].Type) + "." + name
			}
			out = append(out, markedFunc{
				Name: name,
				File: path,
				From: fset.Position(fd.Name.Pos()).Line,
				To:   fset.Position(fd.End()).Line,
			})
		}
	}
	return out, nil
}

func recvTypeName(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.StarExpr:
		return recvTypeName(x.X)
	case *ast.Ident:
		return x.Name
	case *ast.IndexExpr:
		return recvTypeName(x.X)
	case *ast.IndexListExpr:
		return recvTypeName(x.X)
	}
	return "?"
}

// escapeOutput compiles one package with escape-analysis diagnostics
// enabled and returns the compiler's stderr. The build runs in dir,
// the module root (empty outside a module: the working directory), so
// the paths it prints — and Finding.File repeats — are module-relative
// wherever the gate is run from. The diagnostics replay from the build
// cache on repeat runs.
func escapeOutput(importPath, dir string) (string, error) {
	cmd := exec.Command("go", "build", "-gcflags="+importPath+"=-m=1", importPath)
	cmd.Dir = dir
	var buf bytes.Buffer
	cmd.Stdout, cmd.Stderr = &buf, &buf
	if err := cmd.Run(); err != nil {
		return "", fmt.Errorf("go build -gcflags=-m=1 %s: %v\n%s", importPath, err, buf.String())
	}
	return buf.String(), nil
}

// escapeRE matches one positioned compiler diagnostic.
var escapeRE = regexp.MustCompile(`^(.+\.go):(\d+):(\d+): (.*(?:escapes to heap|moved to heap).*)$`)

// matchEscapes pairs escape diagnostics with the marked declarations
// they fall inside; pkgDir is the compiled package's directory (empty:
// resolve paths against the working directory).
func matchEscapes(out, pkgDir string, marked []markedFunc) []Finding {
	var findings []Finding
	for _, line := range strings.Split(out, "\n") {
		m := escapeRE.FindStringSubmatch(strings.TrimSpace(strings.TrimPrefix(line, "#")))
		if m == nil {
			continue
		}
		lineNo, _ := strconv.Atoi(m[2])
		colNo, _ := strconv.Atoi(m[3])
		abs, ok := resolveDiagPath(m[1], pkgDir)
		if !ok {
			continue
		}
		for _, mf := range marked {
			if mf.File == abs && mf.From <= lineNo && lineNo <= mf.To {
				findings = append(findings, Finding{
					File: m[1], Line: lineNo, Col: colNo,
					Func: mf.Name, Detail: m[4],
				})
				break
			}
		}
	}
	return findings
}

// resolveDiagPath maps a compiler-printed file path onto pkgDir. The
// go command prints paths relative to the directory the build ran in,
// and replays cached output verbatim — so output cached by a build in
// another directory carries that directory's relative paths. Every
// diagnostic of one compile sits in the compiled package's own files,
// so the path minus its leading ./ and ../ elements must end in
// pkgDir; any other path is a file of another package.
func resolveDiagPath(path, pkgDir string) (string, bool) {
	if filepath.IsAbs(path) {
		return filepath.Clean(path), true
	}
	if pkgDir == "" {
		abs, err := filepath.Abs(path)
		return abs, err == nil
	}
	rest := filepath.ToSlash(filepath.Clean(path))
	for strings.HasPrefix(rest, "../") {
		rest = rest[len("../"):]
	}
	if dir := filepath.Dir(rest); dir != "." && !strings.HasSuffix(filepath.ToSlash(pkgDir), "/"+dir) {
		return "", false
	}
	return filepath.Join(pkgDir, filepath.Base(rest)), true
}
