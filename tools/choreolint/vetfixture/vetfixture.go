// Package vetfixture is choreolint's one fixture harness. It builds
// the choreolint binary, runs a seeded-violation fixture package under
// tools/choreolint/testdata/src through `go vet -vettool`, the exact
// command CI runs, and diffs the printed findings against the
// fixture's want comments by file, line and regexp.
//
// A want comment asserts one finding of the fixture's pass on its own
// line; several quoted regexps assert several findings:
//
//	s.commitMu.Lock() // want "commitMu acquired while persistMu"
//
// Every want must match a finding and every finding must match a
// want, so a dropped analyzer, an edited regexp and a deleted want all
// fail the check.
package vetfixture

import (
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// Build compiles the choreolint binary into a temp dir and returns its
// path together with the module root go vet must run from. It skips
// the test under -short.
func Build(t *testing.T) (bin, root string) {
	t.Helper()
	if testing.Short() {
		t.Skip("builds the binary and shells out to go vet")
	}
	gomod, err := exec.Command("go", "env", "GOMOD").Output()
	if err != nil {
		t.Fatalf("go env GOMOD: %v", err)
	}
	root = filepath.Dir(strings.TrimSpace(string(gomod)))
	bin = filepath.Join(t.TempDir(), "choreolint")
	cmd := exec.Command("go", "build", "-o", bin, "./tools/choreolint")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("building choreolint: %v\n%s", err, out)
	}
	return bin, root
}

// Vet drives the built binary through the real `go vet -vettool`
// protocol from the module root.
func Vet(bin, root string, args ...string) (string, error) {
	cmd := exec.Command("go", append([]string{"vet", "-vettool=" + bin}, args...)...)
	cmd.Dir = root
	out, err := cmd.CombinedOutput()
	return string(out), err
}

// A finding is one `file:line:col: message [choreolint/<pass>]` line
// of go vet output; a want is one regexp of a want comment.
type finding struct {
	file, msg, pass string
	line            int
	matched         bool
}

type want struct {
	file string
	line int
	re   *regexp.Regexp
}

var (
	findingRE = regexp.MustCompile(`^(.+?):(\d+):\d+: (.*) \[choreolint/(\w+)\]$`)
	// wantRE extracts the quoted regexps of one want comment: double
	// quotes or backticks (the latter spare escaping in patterns that
	// match parentheses).
	wantRE = regexp.MustCompile("\"((?:[^\"\\\\]|\\\\.)*)\"|`([^`]*)`")
)

// Check vets the fixture testdata/src/<dir> (with its subpackages)
// and diffs the findings against its want comments, each of which
// expects a finding of pass. The run must fail, as CI's gate does on
// any finding.
func Check(t *testing.T, bin, root, dir, pass string) {
	t.Helper()
	wants := readWants(t, filepath.Join(root, "tools", "choreolint", "testdata", "src", dir))
	if len(wants) == 0 {
		t.Fatalf("fixture %s has no // want comments", dir)
	}
	out, err := Vet(bin, root, "./tools/choreolint/testdata/src/"+dir+"/...")
	if err == nil {
		t.Errorf("vet on the %s fixture exited 0; want a failing run", dir)
	}
	var findings []*finding
	for _, line := range strings.Split(out, "\n") {
		m := findingRE.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		file := m[1]
		if !filepath.IsAbs(file) {
			file = filepath.Join(root, file)
		}
		n, _ := strconv.Atoi(m[2])
		findings = append(findings, &finding{file: file, line: n, msg: m[3], pass: m[4]})
	}
	for _, w := range wants {
		hit := false
		for _, f := range findings {
			if !f.matched && f.pass == pass && f.file == w.file && f.line == w.line && w.re.MatchString(f.msg) {
				f.matched, hit = true, true
				break
			}
		}
		if !hit {
			t.Errorf("%s:%d: no [choreolint/%s] finding matching %q", w.file, w.line, pass, w.re)
		}
	}
	for _, f := range findings {
		if !f.matched {
			t.Errorf("%s:%d: unexpected finding: %s [choreolint/%s]", f.file, f.line, f.msg, f.pass)
		}
	}
	if t.Failed() {
		t.Logf("go vet output:\n%s", out)
	}
}

// readWants collects the want comments of every .go file under dir.
func readWants(t *testing.T, dir string) []want {
	t.Helper()
	var wants []want
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
			return err
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for i, line := range strings.Split(string(src), "\n") {
			_, text, ok := strings.Cut(line, "// want ")
			if !ok {
				continue
			}
			ms := wantRE.FindAllStringSubmatch(text, -1)
			if len(ms) == 0 {
				t.Fatalf("%s:%d: want comment carries no quoted regexp", path, i+1)
			}
			for _, m := range ms {
				re, err := regexp.Compile(m[1] + m[2])
				if err != nil {
					t.Fatalf("%s:%d: bad want regexp: %v", path, i+1, err)
				}
				wants = append(wants, want{file: path, line: i + 1, re: re})
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return wants
}
