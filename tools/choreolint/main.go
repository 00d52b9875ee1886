// Command choreolint is the repository's invariant linter: a suite of
// static analyzers for the concurrency and wire contracts the store's
// correctness depends on (see docs/lint.md for the
// catalog). It speaks the `go vet -vettool` protocol, so the go
// command drives it package by package with full type information and
// build caching:
//
//	go build -o /tmp/choreolint ./tools/choreolint
//	go vet -vettool=/tmp/choreolint ./...
//
// Invoked with package patterns instead of a .cfg file it re-executes
// itself through go vet, so `go run ./tools/choreolint ./...` works
// from the repository root. `choreolint help` lists the analyzers.
//
// The vettool protocol (shared with x/tools' unitchecker, which this
// driver deliberately mirrors so the binary is a drop-in vettool):
//
//	-V=full    print an executable fingerprint for the build cache
//	-flags     print supported flags as JSON
//	unit.cfg   analyze the single package described by the JSON config
package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"os"
	"os/exec"
	"strings"

	"repro/tools/choreolint/analysis"
	"repro/tools/choreolint/analysis/summary"
	"repro/tools/choreolint/load"
	"repro/tools/choreolint/passes"
)

// config mirrors the JSON compilation-unit description the go command
// hands a vettool (the unitchecker.Config wire contract). Fields the
// driver does not read are listed anyway so the schema is visible in
// one place.
type config struct {
	ID                        string
	Compiler                  string
	Dir                       string
	ImportPath                string
	GoVersion                 string
	GoFiles                   []string
	NonGoFiles                []string
	IgnoredFiles              []string
	ModulePath                string
	ModuleVersion             string
	ImportMap                 map[string]string
	PackageFile               map[string]string
	Standard                  map[string]bool
	PackageVetx               map[string]string
	VetxOnly                  bool
	VetxOutput                string
	SucceedOnTypecheckFailure bool
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("choreolint: ")
	args := os.Args[1:]
	switch {
	case len(args) == 1 && (args[0] == "-V=full" || args[0] == "--V=full"):
		printVersion()
	case len(args) == 1 && (args[0] == "-flags" || args[0] == "--flags"):
		printFlags()
	case len(args) >= 1 && args[0] == "help":
		printHelp()
	case len(args) == 1 && strings.HasSuffix(args[0], ".cfg"):
		os.Exit(checkUnit(args[0]))
	case len(args) >= 1:
		os.Exit(rerunUnderGoVet(args))
	default:
		printHelp()
		os.Exit(2)
	}
}

// printVersion implements -V=full: the go command caches vet results
// keyed on this fingerprint, so it must change whenever the binary
// does — a content hash of the executable, in the format the protocol
// expects.
func printVersion() {
	self, err := os.Executable()
	if err != nil {
		log.Fatal(err)
	}
	f, err := os.Open(self)
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s version devel choreolint buildID=%x\n", self, h.Sum(nil))
}

// printFlags implements -flags: the go command asks for the supported
// flag set before forwarding any user-supplied vet flags.
func printFlags() {
	type jsonFlag struct {
		Name  string
		Bool  bool
		Usage string
	}
	data, err := json.MarshalIndent([]jsonFlag{
		{Name: "V", Bool: true, Usage: "print version and exit"},
		{Name: "flags", Bool: true, Usage: "print analyzer flags in JSON"},
	}, "", "\t")
	if err != nil {
		log.Fatal(err)
	}
	os.Stdout.Write(data)
}

func printHelp() {
	fmt.Println("choreolint checks the repository's cross-cutting invariants.")
	fmt.Println()
	fmt.Println("Usage: choreolint [package pattern ...]   (runs via go vet)")
	fmt.Println()
	fmt.Println("Analyzers:")
	for _, a := range passes.All() {
		doc := a.Doc
		if i := strings.IndexByte(doc, '\n'); i >= 0 {
			doc = doc[:i]
		}
		fmt.Printf("  %-18s %s\n", a.Name, doc)
	}
}

// rerunUnderGoVet turns a direct `choreolint ./...` invocation into
// the real thing: go vet drives this same binary as its vettool.
func rerunUnderGoVet(args []string) int {
	self, err := os.Executable()
	if err != nil {
		log.Fatal(err)
	}
	cmd := exec.Command("go", append([]string{"vet", "-vettool=" + self}, args...)...)
	cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
	if err := cmd.Run(); err != nil {
		if ee, ok := err.(*exec.ExitError); ok {
			return ee.ExitCode()
		}
		log.Fatal(err)
	}
	return 0
}

// checkUnit analyzes the single compilation unit described by the
// config file, printing findings to stderr; it returns the process
// exit code (1 when findings exist, as go vet expects).
//
// Dependency units arrive with VetxOnly set: the go command wants
// only the package's exported facts. For packages of this module the
// summary engine's facts are computed and written for real — that is
// the channel that makes cross-package calls visible to the
// interprocedural passes — while standard-library and external
// dependencies get the empty facts file and stay on the fast path.
func checkUnit(cfgFile string) int {
	data, err := os.ReadFile(cfgFile)
	if err != nil {
		log.Fatal(err)
	}
	var cfg config
	if err := json.Unmarshal(data, &cfg); err != nil {
		log.Fatalf("cannot decode JSON config file %s: %v", cfgFile, err)
	}
	inModule := cfg.ModulePath != "" &&
		(cfg.ImportPath == cfg.ModulePath || strings.HasPrefix(cfg.ImportPath, cfg.ModulePath+"/"))
	if cfg.VetxOnly && !inModule {
		writeVetx(&cfg, nil)
		return 0
	}
	unit, err := load.Package(&load.Config{
		ImportPath:  cfg.ImportPath,
		GoFiles:     cfg.GoFiles,
		ImportMap:   cfg.ImportMap,
		PackageFile: cfg.PackageFile,
		GoVersion:   cfg.GoVersion,
	})
	if err == nil && len(unit.TypeErrors) > 0 {
		err = unit.TypeErrors[0]
	}
	if err != nil {
		writeVetx(&cfg, nil)
		if cfg.SucceedOnTypecheckFailure {
			return 0 // the compiler will report the real problem
		}
		log.Fatalf("typechecking %s: %v", cfg.ImportPath, err)
	}
	sum := summary.Compute(&summary.Context{
		Fset:      unit.Fset,
		Files:     unit.Files,
		Pkg:       unit.Pkg,
		TypesInfo: unit.TypesInfo,
		Imports:   &vetxImporter{cfg: &cfg},
	}, passes.Collectors())
	facts, err := sum.Encode()
	if err != nil {
		log.Fatal(err)
	}
	writeVetx(&cfg, facts)
	if cfg.VetxOnly {
		return 0
	}
	diags, err := analysis.Run(passes.All(), unit.Fset, unit.Files, unit.Pkg, unit.TypesInfo, sum)
	if err != nil {
		log.Fatal(err)
	}
	for _, d := range diags {
		fmt.Fprintf(os.Stderr, "%s: %s [choreolint/%s]\n", unit.Fset.Position(d.Pos), d.Message, d.Analyzer)
	}
	if len(diags) > 0 {
		return 1
	}
	return 0
}

// vetxImporter resolves dependency summaries from the facts files the
// go command threads through PackageVetx; per-package decoding is
// cached by the summary context.
type vetxImporter struct {
	cfg *config
}

func (v *vetxImporter) Facts(pkgPath string) *summary.File {
	file, ok := v.cfg.PackageVetx[pkgPath]
	if !ok {
		return nil
	}
	data, err := os.ReadFile(file)
	if err != nil || len(data) == 0 {
		return nil
	}
	f, err := summary.Decode(data)
	if err != nil {
		log.Fatalf("decoding summary facts of %s: %v", pkgPath, err)
	}
	return f
}

// writeVetx satisfies the protocol's facts output: the go command
// caches the facts file alongside the unit's vet result and threads
// it to dependent units via PackageVetx.
func writeVetx(cfg *config, facts []byte) {
	if cfg.VetxOutput == "" {
		return
	}
	if err := os.WriteFile(cfg.VetxOutput, facts, 0o666); err != nil {
		log.Fatal(err)
	}
}
