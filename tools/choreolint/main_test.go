package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/tools/choreolint/passes"
)

// buildTool compiles the choreolint binary into a temp dir and
// returns its path together with the repository root go vet must run
// from.
func buildTool(t *testing.T) (bin, root string) {
	t.Helper()
	if testing.Short() {
		t.Skip("builds the binary and shells out to go vet")
	}
	bin = filepath.Join(t.TempDir(), "choreolint")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("building choreolint: %v\n%s", err, out)
	}
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	return bin, root
}

// goVet drives the built binary through the real `go vet -vettool`
// protocol from the repository root.
func goVet(bin, root string, args ...string) (string, error) {
	cmd := exec.Command("go", append([]string{"vet", "-vettool=" + bin}, args...)...)
	cmd.Dir = root
	out, err := cmd.CombinedOutput()
	return string(out), err
}

// TestVettoolProtocol builds the binary and drives it through the
// real `go vet -vettool` JSON protocol — the exact shape CI runs.
// Every pass's seeded-violation fixture must fail with one finding of
// that pass per `// want` comment, so an analyzer dropped from
// passes.All() fails here; a clean production package must pass.
func TestVettoolProtocol(t *testing.T) {
	bin, root := buildTool(t)

	fixtures := []string{
		"ctxfirst", "errenvelope", "faultpoint", "lockheldio",
		"lockorder", "replaydeterminism", "snapshotimmut", "walexhaustive",
	}
	for _, a := range passes.All() {
		if !slices.Contains(fixtures, a.Name) {
			t.Errorf("analyzer %s has no fixture in this table", a.Name)
		}
	}
	for _, pass := range fixtures {
		t.Run(pass, func(t *testing.T) {
			dir := filepath.Join("testdata", "src", pass)
			files, err := filepath.Glob(filepath.Join(dir, "*.go"))
			if err != nil || len(files) == 0 {
				t.Fatalf("no fixture files in %s: %v", dir, err)
			}
			wants := 0
			for _, f := range files {
				src, err := os.ReadFile(f)
				if err != nil {
					t.Fatal(err)
				}
				wants += strings.Count(string(src), "// want ")
			}
			out, err := goVet(bin, root, "./tools/choreolint/"+filepath.ToSlash(dir)+"/")
			if err == nil {
				t.Fatalf("vet on the %s fixture passed; want findings\n%s", pass, out)
			}
			if got := strings.Count(out, "[choreolint/"+pass+"]"); got != wants {
				t.Fatalf("vet on the %s fixture printed %d %s findings, want %d (one per // want):\n%s",
					pass, got, pass, wants, out)
			}
		})
	}

	out, err := goVet(bin, root, "./internal/journal/")
	if err != nil {
		t.Fatalf("vet on internal/journal failed: %v\n%s", err, out)
	}
}

// TestCrossPackageFacts proves summary facts travel the vetx channel:
// the xpkg fixture's frozen marker, write-set fact, and returnsFresh
// bit all live in frozenlib, while every finding (and non-finding) is
// in the importing package. Without fact transport the two Bad
// functions go silent; without returnsFresh transport GoodFresh gets
// flagged. Both failure modes change the finding count.
func TestCrossPackageFacts(t *testing.T) {
	bin, root := buildTool(t)

	out, err := goVet(bin, root, "./tools/choreolint/testdata/src/xpkg/...")
	if err == nil {
		t.Fatalf("vet on the xpkg fixture passed; want cross-package findings\n%s", out)
	}
	if n := strings.Count(out, "[choreolint/snapshotimmut]"); n != 2 {
		t.Fatalf("got %d snapshotimmut findings, want exactly 2 (BadDirect, BadShared):\n%s", n, out)
	}
	for _, want := range []string{
		"use.go", // both findings are in the importing package
		"frozenlib.Table",
		"call to Set writes",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("vet output missing %q:\n%s", want, out)
		}
	}
}

// TestJSONOutput drives the declared -json flag through go vet: exit
// status 0 even with findings (mirroring unitchecker), one JSON
// object per package keyed by import path and prefixed analyzer name.
func TestJSONOutput(t *testing.T) {
	bin, root := buildTool(t)

	out, err := goVet(bin, root, "-json", "./tools/choreolint/testdata/src/xpkg/...")
	if err != nil {
		t.Fatalf("vet -json exited non-zero: %v\n%s", err, out)
	}

	// go vet interleaves "# pkgpath" comment lines with each unit's
	// JSON object; strip the comments and decode the object stream.
	var jsonLines []string
	for _, line := range strings.Split(out, "\n") {
		if !strings.HasPrefix(line, "#") {
			jsonLines = append(jsonLines, line)
		}
	}
	type jsonDiag struct {
		Posn    string `json:"posn"`
		Message string `json:"message"`
	}
	merged := map[string]map[string][]jsonDiag{}
	dec := json.NewDecoder(strings.NewReader(strings.Join(jsonLines, "\n")))
	for dec.More() {
		var obj map[string]map[string][]jsonDiag
		if err := dec.Decode(&obj); err != nil {
			t.Fatalf("decoding vet -json stream: %v\n%s", err, out)
		}
		for pkg, byAnalyzer := range obj {
			merged[pkg] = byAnalyzer
		}
	}

	diags := merged["repro/tools/choreolint/testdata/src/xpkg/use"]["choreolint/snapshotimmut"]
	if len(diags) != 2 {
		t.Fatalf("got %d snapshotimmut diagnostics for xpkg/use, want 2:\n%s", len(diags), out)
	}
	for _, d := range diags {
		if !strings.Contains(d.Posn, "use.go:") {
			t.Errorf("diagnostic position %q; want a use.go position", d.Posn)
		}
		if !strings.Contains(d.Message, "frozenlib.Table") {
			t.Errorf("diagnostic message %q; want the frozen type named", d.Message)
		}
	}
}

// TestVersionFlag checks the -V=full handshake the go command uses to
// fingerprint the tool for build caching.
func TestVersionFlag(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the binary")
	}
	bin := filepath.Join(t.TempDir(), "choreolint")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("building choreolint: %v\n%s", err, out)
	}
	out, err := exec.Command(bin, "-V=full").Output()
	if err != nil {
		t.Fatalf("-V=full: %v", err)
	}
	got := strings.TrimSpace(string(out))
	if !strings.Contains(got, "choreolint version ") || !strings.Contains(got, "buildID=") {
		t.Fatalf("-V=full printed %q; want \"choreolint version ... buildID=...\"", got)
	}
}
