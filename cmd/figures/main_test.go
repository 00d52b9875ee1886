package main

import (
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// TestFigureVerdicts runs the program and requires the paper's
// verdict lines for Figs. 5, 10, 12 and 16 and both adaptation
// headings.
func TestFigureVerdicts(t *testing.T) {
	f, err := os.Create(filepath.Join(t.TempDir(), "stdout"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	stdout := os.Stdout
	os.Stdout = f
	main()
	os.Stdout = stdout
	out, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}

	lines := strings.Split(string(out), "\n")
	for _, want := range []string{
		"Fig. 5 intersection annotated-empty: true (paper: empty)",
		"Fig. 10 classification: additive, invariant (paper: additive, invariant)",
		"Fig. 12b intersection annotated-empty: true (paper: empty → variant)",
		"Fig. 16b intersection annotated-empty: true (paper: empty → variant)",
		"──── Fig. 14 suggested buyer adaptation ────",
		"──── Fig. 18 suggested buyer adaptation ────",
	} {
		if !slices.Contains(lines, want) {
			t.Errorf("output lacks the line %q", want)
		}
	}
}
