package main

import (
	"os/exec"
	"strings"
	"testing"

	"repro/tools/choreolint/passes"
	"repro/tools/choreolint/vetfixture"
)

// TestVettoolProtocol builds the binary and drives every fixture under
// testdata/src through `go vet -vettool`, the exact command CI runs,
// diffing the findings against the fixture's `// want "re"` comments
// (vetfixture.Check). Every analyzer in passes.All() must have a row,
// so a dropped analyzer fails here as well as in its own package's
// TestFixture. The xpkg fixture's findings need snapshotimmut facts to
// cross the package boundary over the vetx channel. A clean production
// package must pass.
func TestVettoolProtocol(t *testing.T) {
	bin, root := vetfixture.Build(t)

	fixtures := []struct{ dir, pass string }{
		{"lockheldio", "lockheldio"},
		{"lockorder", "lockorder"},
		{"snapshotimmut", "snapshotimmut"},
		{"xpkg", "snapshotimmut"},
	}
	for _, a := range passes.All() {
		found := false
		for _, f := range fixtures {
			found = found || f.dir == a.Name
		}
		if !found {
			t.Errorf("analyzer %s has no fixture in this table", a.Name)
		}
	}
	for _, fx := range fixtures {
		t.Run(fx.dir, func(t *testing.T) {
			vetfixture.Check(t, bin, root, fx.dir, fx.pass)
		})
	}

	out, err := vetfixture.Vet(bin, root, "./internal/journal/")
	if err != nil {
		t.Fatalf("vet on internal/journal failed: %v\n%s", err, out)
	}
}

// TestVersionFlag checks the -V=full handshake the go command uses to
// fingerprint the tool for build caching.
func TestVersionFlag(t *testing.T) {
	bin, _ := vetfixture.Build(t)
	out, err := exec.Command(bin, "-V=full").Output()
	if err != nil {
		t.Fatalf("-V=full: %v", err)
	}
	got := strings.TrimSpace(string(out))
	if !strings.Contains(got, "choreolint version ") || !strings.Contains(got, "buildID=") {
		t.Fatalf("-V=full printed %q; want \"choreolint version ... buildID=...\"", got)
	}
}
