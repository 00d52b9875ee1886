// Package summary is choreolint's interprocedural engine: per-function
// facts computed to a fixed point over the package's static call graph,
// with interface calls resolved to their same-package implementers, and
// exported across package boundaries through the vet facts (vetx) protocol so a
// cross-package call is not a blind spot.
//
// A pass contributes a Collector: a Scan function that computes one
// function's fact from its own body plus the current estimate of every
// callee's fact (same-package estimates converge during the fixed
// point; cross-package facts come from the dependency's exported
// summary file). Facts must grow monotonically under Scan — start
// empty, add bits/slots/strings as evidence appears — which is what
// makes the iteration terminate.
//
// The engine deliberately does not import package analysis: analysis
// hands each Pass a computed *Info, and the pass packages use both.
package summary

import (
	"encoding/json"
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"strings"
)

// A Fact is one analyzer's knowledge about one function. The three
// fields are generic carriers; each collector defines their meaning
// (lockorder uses Bits, snapshotimmut uses Params for written
// parameter slots and Strings for the frozen types reached).
type Fact struct {
	// Bits is an analyzer-defined bitset.
	Bits uint64 `json:"b,omitempty"`
	// Params is a sorted set of parameter slots (receiver first, when
	// the function has one) with an analyzer-defined property.
	Params []int `json:"p,omitempty"`
	// Strings is a sorted set of analyzer-defined strings.
	Strings []string `json:"s,omitempty"`
}

// Empty reports whether the fact carries no information.
func (f Fact) Empty() bool {
	return f.Bits == 0 && len(f.Params) == 0 && len(f.Strings) == 0
}

// Equal reports whether two facts are identical.
func (f Fact) Equal(g Fact) bool {
	return f.Bits == g.Bits && slices.Equal(f.Params, g.Params) && slices.Equal(f.Strings, g.Strings)
}

// HasParam reports whether slot is in Params.
func (f Fact) HasParam(slot int) bool {
	_, ok := slices.BinarySearch(f.Params, slot)
	return ok
}

// AddParam adds slot to Params, keeping the set sorted.
func (f *Fact) AddParam(slot int) {
	if i, ok := slices.BinarySearch(f.Params, slot); !ok {
		f.Params = slices.Insert(f.Params, i, slot)
	}
}

// AddString adds s to Strings, keeping the set sorted.
func (f *Fact) AddString(s string) {
	if i, ok := slices.BinarySearch(f.Strings, s); !ok {
		f.Strings = slices.Insert(f.Strings, i, s)
	}
}

// MergeStrings folds another fact's strings in.
func (f *Fact) MergeStrings(g Fact) {
	for _, s := range g.Strings {
		f.AddString(s)
	}
}

// normalize sorts the set fields so facts compare and encode
// deterministically.
func (f Fact) normalize() Fact {
	slices.Sort(f.Params)
	f.Params = slices.Compact(f.Params)
	slices.Sort(f.Strings)
	f.Strings = slices.Compact(f.Strings)
	return f
}

// A Lookup returns the current fact estimate for any function, local
// (converging during the fixed point) or imported (from the defining
// package's exported summary). Unknown functions yield the zero Fact.
type Lookup func(fn *types.Func) Fact

// A Collector computes one analyzer's per-function facts.
type Collector struct {
	// Name keys the facts in summary files; by convention the
	// analyzer's name.
	Name string
	// Scan computes fn's fact from its body and the current estimates
	// of its callees. It is re-invoked until the package's facts reach
	// a fixed point, so it must be monotone: given bigger callee facts
	// it returns an equal-or-bigger fact.
	Scan func(c *Context, fn *types.Func, decl *ast.FuncDecl, cur Lookup) Fact
}

// An Importer resolves the exported summary file of a dependency
// package. The vettool driver implements it over the PackageVetx file
// map.
type Importer interface {
	// Facts returns pkgPath's summary file, or nil when the package
	// exports none (standard library, non-module dependencies).
	Facts(pkgPath string) *File
}

// A File is the wire form of one package's exported summary, written
// as deterministic JSON into the package's vetx facts file.
type File struct {
	// Funcs maps FuncKey → collector name → fact.
	Funcs map[string]map[string]Fact `json:"funcs,omitempty"`
	// Types maps marker name → sorted type keys, for every
	// //choreolint:<marker> type directive in the package (for example
	// Types["frozen"] lists the package's frozen types).
	Types map[string][]string `json:"types,omitempty"`
}

// Decode parses a summary file; empty input yields an empty file.
func Decode(data []byte) (*File, error) {
	f := &File{}
	if len(data) == 0 {
		return f, nil
	}
	if err := json.Unmarshal(data, f); err != nil {
		return nil, err
	}
	return f, nil
}

// Context is one package's view for summary computation: syntax,
// types, call graph, and the importer for cross-package facts.
type Context struct {
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	Graph     *Graph
	// Imports resolves dependency summaries.
	Imports Importer

	// Cache is collector scratch space: Scan runs once per function
	// per fixed-point round, so per-package precomputation (marker
	// tables, lock sets) is memoized here under a collector-chosen key.
	Cache map[string]any

	typeMarkers map[string][]string // marker → local type keys, lazily built
	funcMarkers map[string]map[*types.Func]bool
	imported    map[string]*File // pkg path → decoded file (nil = none)
}

// FuncKey is the stable cross-package identity of a function or
// method: types.Func.FullName of its generic origin, for example
// "(*repro/internal/afsa.Automaton).Reintern".
func FuncKey(fn *types.Func) string { return fn.Origin().FullName() }

// TypeKey is the stable cross-package identity of a named type:
// "pkgpath.Name".
func TypeKey(obj *types.TypeName) string {
	if obj.Pkg() == nil {
		return obj.Name()
	}
	return obj.Pkg().Path() + "." + obj.Name()
}

// importedFile returns (and caches) the decoded summary of pkgPath.
func (c *Context) importedFile(pkgPath string) *File {
	if f, ok := c.imported[pkgPath]; ok {
		return f
	}
	if c.imported == nil {
		c.imported = map[string]*File{}
	}
	f := c.Imports.Facts(pkgPath)
	c.imported[pkgPath] = f
	return f
}

// importedFact resolves one function's fact from its defining
// package's summary file.
func (c *Context) importedFact(collector string, fn *types.Func) Fact {
	if fn.Pkg() == nil {
		return Fact{}
	}
	f := c.importedFile(fn.Pkg().Path())
	if f == nil {
		return Fact{}
	}
	return f.Funcs[FuncKey(fn)][collector]
}

// MarkedTypes returns the type keys carrying //choreolint:<marker> —
// the package's own marked types plus those of its direct imports
// (read from their summary files). Types a package can write to are
// named in its files, so direct imports cover the reachable set.
func (c *Context) MarkedTypes(marker string) map[string]bool {
	out := map[string]bool{}
	for _, key := range c.localTypeMarkers()[marker] {
		out[key] = true
	}
	if c.Pkg != nil {
		for _, imp := range c.Pkg.Imports() {
			if f := c.importedFile(imp.Path()); f != nil {
				for _, key := range f.Types[marker] {
					out[key] = true
				}
			}
		}
	}
	return out
}

// MarkedFuncObjs returns the declared functions whose doc comment
// carries //choreolint:<marker>.
func (c *Context) MarkedFuncObjs(marker string) map[*types.Func]bool {
	if set, ok := c.funcMarkers[marker]; ok {
		return set
	}
	set := map[*types.Func]bool{}
	for _, file := range c.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || !docHasMarker(fd.Doc, marker) {
				continue
			}
			if fn, ok := c.TypesInfo.Defs[fd.Name].(*types.Func); ok {
				set[fn] = true
			}
		}
	}
	if c.funcMarkers == nil {
		c.funcMarkers = map[string]map[*types.Func]bool{}
	}
	c.funcMarkers[marker] = set
	return set
}

// localTypeMarkers scans the package's type declarations once for
// every //choreolint: marker.
func (c *Context) localTypeMarkers() map[string][]string {
	if c.typeMarkers != nil {
		return c.typeMarkers
	}
	c.typeMarkers = map[string][]string{}
	for _, file := range c.Files {
		for _, decl := range file.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.TYPE {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				doc := ts.Doc
				if doc == nil && len(gd.Specs) == 1 {
					doc = gd.Doc
				}
				obj, ok := c.TypesInfo.Defs[ts.Name].(*types.TypeName)
				if !ok {
					continue
				}
				for _, marker := range docMarkers(doc) {
					c.typeMarkers[marker] = append(c.typeMarkers[marker], TypeKey(obj))
				}
			}
		}
	}
	for marker := range c.typeMarkers {
		slices.Sort(c.typeMarkers[marker])
	}
	return c.typeMarkers
}

// docHasMarker reports whether the comment group contains the exact
// //choreolint:<marker> directive.
func docHasMarker(doc *ast.CommentGroup, marker string) bool {
	return slices.Contains(docMarkers(doc), marker)
}

// docMarkers returns every //choreolint:<marker> in the group.
func docMarkers(doc *ast.CommentGroup) []string {
	if doc == nil {
		return nil
	}
	var out []string
	for _, c := range doc.List {
		if m, ok := strings.CutPrefix(strings.TrimSpace(c.Text), "//choreolint:"); ok {
			out = append(out, m)
		}
	}
	return out
}

// Info is the computed summary of one package: every collector's
// per-function facts at their fixed point, plus the graph and marker
// tables the passes read.
type Info struct {
	ctx   *Context
	local map[string]map[*types.Func]Fact
}

// Compute runs every collector to its fixed point. The context's
// graph is built on demand.
func Compute(ctx *Context, collectors []*Collector) *Info {
	if ctx.Graph == nil {
		ctx.Graph = BuildGraph(ctx.Files, ctx.TypesInfo)
	}
	if ctx.Cache == nil {
		ctx.Cache = map[string]any{}
	}
	info := &Info{ctx: ctx, local: map[string]map[*types.Func]Fact{}}
	for _, c := range collectors {
		facts := map[*types.Func]Fact{}
		cur := func(fn *types.Func) Fact {
			fn = fn.Origin()
			if fn.Pkg() == ctx.Pkg {
				return facts[fn]
			}
			return ctx.importedFact(c.Name, fn)
		}
		// Monotone facts over a finite lattice reach the fixed point in
		// at most one round per function; the cap is a safety net
		// against a non-monotone Scan, not a tuning knob.
		limit := len(ctx.Graph.Decls) + 2
		for round := 0; ; round++ {
			changed := false
			for fn, decl := range ctx.Graph.Decls {
				nf := c.Scan(ctx, fn, decl, cur).normalize()
				if !nf.Equal(facts[fn]) {
					facts[fn] = nf
					changed = true
				}
			}
			if !changed || round >= limit {
				break
			}
		}
		info.local[c.Name] = facts
	}
	return info
}

// Context returns the package context the summary was computed over.
func (in *Info) Context() *Context { return in.ctx }

// Graph returns the package call graph.
func (in *Info) Graph() *Graph { return in.ctx.Graph }

// Fact returns collector's fact for fn: the local fixed point for
// same-package functions, the defining package's exported fact
// otherwise.
func (in *Info) Fact(collector string, fn *types.Func) Fact {
	fn = fn.Origin()
	if fn.Pkg() == in.ctx.Pkg {
		return in.local[collector][fn]
	}
	return in.ctx.importedFact(collector, fn)
}

// Lookup curries Fact for one collector.
func (in *Info) Lookup(collector string) Lookup {
	return func(fn *types.Func) Fact { return in.Fact(collector, fn) }
}

// MarkedTypes returns the //choreolint:<marker> type keys visible to
// the package (its own plus direct imports').
func (in *Info) MarkedTypes(marker string) map[string]bool {
	return in.ctx.MarkedTypes(marker)
}

// MarkedFuncObjs returns the package's //choreolint:<marker> functions.
func (in *Info) MarkedFuncObjs(marker string) map[*types.Func]bool {
	return in.ctx.MarkedFuncObjs(marker)
}

// Encode serializes the package's exported summary: every non-empty
// function fact plus the package's type markers, as deterministic JSON
// (sorted object keys), so the go command's content-addressed caching
// of vetx files stays stable.
func (in *Info) Encode() ([]byte, error) {
	file := File{Types: in.ctx.localTypeMarkers()}
	for name, facts := range in.local {
		for fn, f := range facts {
			if f.Empty() {
				continue
			}
			if file.Funcs == nil {
				file.Funcs = map[string]map[string]Fact{}
			}
			key := FuncKey(fn)
			if file.Funcs[key] == nil {
				file.Funcs[key] = map[string]Fact{}
			}
			file.Funcs[key][name] = f
		}
	}
	if len(file.Types) == 0 {
		file.Types = nil
	}
	return json.Marshal(file)
}
