package main

import (
	"path/filepath"
	"strings"
	"testing"
)

// TestFixtureFindings pins the gate's findings on the seeded fixture
// to exact positions: the three canonical allocation shapes are each
// caught where they happen, and the clean function stays silent.
func TestFixtureFindings(t *testing.T) {
	findings, err := Check([]string{"../choreolint/testdata/src/allocfree"})
	if err != nil {
		t.Fatal(err)
	}
	want := []struct {
		line, col int
		fn        string
		detail    string
	}{
		{14, 2, "EscapingClosure", "moved to heap: x"},
		{15, 9, "EscapingClosure", "func literal escapes to heap"},
		{23, 13, "SliceGrowth", "make([]int, 0, 4) escapes to heap"},
		{34, 14, "InterfaceBoxing", "v escapes to heap"},
	}
	if len(findings) != len(want) {
		t.Fatalf("got %d findings, want %d:\n%v", len(findings), len(want), findings)
	}
	for i, w := range want {
		f := findings[i]
		if f.Line != w.line || f.Col != w.col || f.Func != w.fn || f.Detail != w.detail {
			t.Errorf("finding %d: got %d:%d %s %q, want %d:%d %s %q",
				i, f.Line, f.Col, f.Func, f.Detail, w.line, w.col, w.fn, w.detail)
		}
		if !strings.HasSuffix(f.File, "fixture.go") {
			t.Errorf("finding %d: file %q, want fixture.go", i, f.File)
		}
		if s := f.String(); !strings.Contains(s, "[allocgate]") || !strings.Contains(s, marker) {
			t.Errorf("finding %d formats as %q; want the analyzer tag and marker", i, s)
		}
	}
}

// TestHotPathsClean is the production gate: the marked hot paths must
// be allocation-free, and the markers must actually exist (an edit
// that drops one would otherwise pass vacuously).
func TestHotPathsClean(t *testing.T) {
	pkgs := []string{"repro/internal/afsa", "repro/internal/store"}
	findings, err := Check(pkgs)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		t.Errorf("marked hot path allocates: %s", f)
	}

	listed, err := listPackages(pkgs)
	if err != nil {
		t.Fatal(err)
	}
	marked := map[string]bool{}
	for _, pkg := range listed {
		mfs, err := markedFuncs(pkg)
		if err != nil {
			t.Fatal(err)
		}
		for _, mf := range mfs {
			marked[mf.Name] = true
		}
	}
	for _, want := range []string{"Stepper.StepSym", "hashIDs", "sortEdgesBySym", "pendingInst.advance"} {
		if !marked[want] {
			t.Errorf("expected %s marker on %s, found none", marker, want)
		}
	}
}

// TestMatchEscapes exercises the diagnostic parser on synthetic
// compiler output, including the lines it must ignore.
func TestMatchEscapes(t *testing.T) {
	marked := []markedFunc{{Name: "F", File: mustAbs(t, "x.go"), From: 10, To: 20}}
	out := strings.Join([]string{
		"# repro/internal/example",
		"x.go:12:5: make([]int, n) escapes to heap",
		"x.go:15:3: moved to heap: buf",
		"x.go:25:1: make([]int, n) escapes to heap", // outside the range
		"x.go:11:2: n does not escape",              // not an allocation
		"y.go:12:5: make([]int, n) escapes to heap", // other file
	}, "\n")
	got := matchEscapes(out, "", marked)
	if len(got) != 2 {
		t.Fatalf("got %d findings, want 2: %v", len(got), got)
	}
	if got[0].Line != 12 || got[1].Line != 15 {
		t.Errorf("got lines %d, %d; want 12, 15", got[0].Line, got[1].Line)
	}
}

// TestResolveDiagPath pins the path mapping that keeps the gate
// independent of the working directory: module-relative output, output
// replayed from a cache entry written by a build in another directory,
// and package-relative output all land on the package's file, while a
// file of another package is dropped.
func TestResolveDiagPath(t *testing.T) {
	const pkgDir = "/mod/tools/choreolint/testdata/src/allocfree"
	for _, tc := range []struct {
		path, want string
	}{
		{"tools/choreolint/testdata/src/allocfree/fixture.go", pkgDir + "/fixture.go"},
		{"../choreolint/testdata/src/allocfree/fixture.go", pkgDir + "/fixture.go"},
		{"./fixture.go", pkgDir + "/fixture.go"},
		{"/mod/tools/choreolint/testdata/src/allocfree/fixture.go", pkgDir + "/fixture.go"},
		{"../afsa/fixture.go", ""},
		{"internal/store/fixture.go", ""},
	} {
		got, ok := resolveDiagPath(tc.path, pkgDir)
		if !ok {
			got = ""
		}
		if got != tc.want {
			t.Errorf("resolveDiagPath(%q) = %q, want %q", tc.path, got, tc.want)
		}
	}
}

// mustAbs resolves p the same way matchEscapes resolves compiler
// paths.
func mustAbs(t *testing.T, p string) string {
	t.Helper()
	abs, err := filepath.Abs(p)
	if err != nil {
		t.Fatal(err)
	}
	return abs
}
