package main

import (
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// writeTree lays out a repository root holding one server source that
// registers served and the four docFiles, each mentioning documented.
func writeTree(t *testing.T, served, documented []string) string {
	t.Helper()
	root := t.TempDir()
	var src strings.Builder
	src.WriteString("package server\n\nimport \"net/http\"\n\nfunc routes(mux *http.ServeMux) {\n")
	for _, route := range served {
		fmt.Fprintf(&src, "\tmux.HandleFunc(%q, nil)\n", route)
	}
	src.WriteString("}\n")
	var doc strings.Builder
	doc.WriteString("# Routes\n\n```\n")
	for _, route := range documented {
		doc.WriteString(route + "\n")
	}
	doc.WriteString("```\n")
	files := map[string]string{"internal/server/routes.go": src.String()}
	for _, f := range docFiles {
		files[f] = doc.String()
	}
	for name, body := range files {
		path := filepath.Join(root, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

// TestPlantedMismatches builds docscheck and runs it from the root of
// a tree where routes and docs agree (exit 0), and of trees with one
// planted mismatch in each direction (exit 1 naming the route).
func TestPlantedMismatches(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "docscheck")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("building docscheck: %v\n%s", err, out)
	}
	served := []string{"GET /v2/stats", "POST /v2/choreographies/{id}/check"}
	tests := []struct {
		name               string
		served, documented []string
		wantExit           int
		wantOut            string
	}{
		{"match", served, []string{"GET /v2/stats", "POST /v2/choreographies/{cid}/check?dry=1"},
			0, "docscheck: 2 documented routes all present in the route table"},
		{"unserved", served, append([]string{"GET /v2/metrics"}, served...),
			1, "reference unserved route: GET /v2/metrics"},
		{"undocumented", append([]string{"DELETE /v2/choreographies/{id}"}, served...), served,
			1, fmt.Sprintf("served but not documented in %v: DELETE /v2/choreographies/{}", docFiles)},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			cmd := exec.Command(bin)
			cmd.Dir = writeTree(t, tc.served, tc.documented)
			out, err := cmd.CombinedOutput()
			exit := 0
			var ee *exec.ExitError
			if errors.As(err, &ee) {
				exit = ee.ExitCode()
			} else if err != nil {
				t.Fatal(err)
			}
			if exit != tc.wantExit || !strings.Contains(string(out), tc.wantOut) {
				t.Fatalf("exit %d, output:\n%s\nwant exit %d with %q", exit, out, tc.wantExit, tc.wantOut)
			}
		})
	}
}
