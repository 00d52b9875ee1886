// Package mapping implements public process generation (paper
// Sec. 3.3): the derivation of a party's public aFSA from its private
// BPEL process, together with the mapping table relating aFSA states
// to BPEL blocks (Table 1). The table is what later lets the change
// framework translate modified public states back into the private
// regions a process engineer has to adapt (Secs. 5.2/5.3 step 3).
//
// # Derivation rules
//
//   - receive P.op        — one transition  P#owner#op
//   - invoke  P.op async  — one transition  owner#P#op
//   - invoke  P.op sync   — two transitions owner#P#op, P#owner#op
//     (request and response, cf. Fig. 8b)
//   - reply   P.op        — one transition  owner#P#op
//   - assign/empty        — invisible, no transition
//   - terminate           — current state becomes final, control stops
//   - sequence            — concatenation
//   - switch/while        — branching; as *internal* (data-driven)
//     choices they annotate the branch state with the conjunction over
//     branches of OR(first labels of branch): every alternative the
//     owner may pick is mandatory for the partner (reproduces the
//     "terminateOp AND get_statusOp" annotation of Fig. 6)
//   - pick                — branching on received messages; an
//     *external* choice carries no annotation (the partner decides)
//   - flow                — interleaving (shuffle product) of branches
//   - scope               — transparent nesting
//
// A while whose condition is the constant truth ("1 = 1" or "true", as
// the paper's parcel-tracking loops) never exits; any other condition
// allows exiting after each iteration. A terminate inside a flow is
// rejected (the paper never interleaves termination).
//
// The raw automaton (states = positions between activities) is
// determinized and minimized with state-provenance tracking, and the
// mapping table is carried through both steps.
package mapping

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"repro/internal/afsa"
	"repro/internal/bpel"
	"repro/internal/formula"
	"repro/internal/label"
	"repro/internal/wsdl"
)

// ProcessRootElement is the pseudo path element representing the BPEL
// process itself in the mapping table (Table 1 row 1: "BPELProcess").
const ProcessRootElement = "BPELProcess"

// Table maps public-process states to the BPEL block paths they
// correspond to.
type Table map[afsa.StateID][]bpel.Path

// Blocks returns the distinct block elements (last path components)
// associated with state q, in first-association order — the form the
// paper's Table 1 uses.
func (t Table) Blocks(q afsa.StateID) []string {
	var out []string
	seen := map[string]bool{}
	for _, p := range t[q] {
		el := ProcessRootElement
		if len(p) > 0 {
			el = p[len(p)-1]
		}
		if !seen[el] {
			seen[el] = true
			out = append(out, el)
		}
	}
	return out
}

// Paths returns the distinct full block paths associated with state q.
func (t Table) Paths(q afsa.StateID) []bpel.Path {
	var out []bpel.Path
	seen := map[string]bool{}
	for _, p := range t[q] {
		key := p.String()
		if !seen[key] {
			seen[key] = true
			out = append(out, p)
		}
	}
	return out
}

// String renders the table in state order, one row per state, the way
// the paper prints Table 1.
func (t Table) String() string {
	states := make([]int, 0, len(t))
	for q := range t {
		states = append(states, int(q))
	}
	sort.Ints(states)
	var b strings.Builder
	for _, q := range states {
		fmt.Fprintf(&b, "%d: %s\n", q, strings.Join(t.Blocks(afsa.StateID(q)), ", "))
	}
	return b.String()
}

// Result is the outcome of public process generation.
type Result struct {
	// Automaton is the minimized public process.
	Automaton *afsa.Automaton
	// Table maps automaton states to private-process blocks.
	Table Table
	// Raw is the pre-minimization automaton (states are positions
	// between activities); RawTable is its mapping table. The
	// propagation algorithms use the minimized form; Raw is retained
	// for diagnostics.
	Raw      *afsa.Automaton
	RawTable Table
}

// ErrInternal marks a derived automaton that fails its own invariants:
// a defect of the derivation, not of the process.
var ErrInternal = errors.New("mapping: internal error")

// Derive generates the public process of p (Sec. 3.3). The registry
// may be nil; synchronous invokes are then recognized by the Invoke's
// Sync flag alone (which Validate checks against the registry when one
// is available).
func Derive(p *bpel.Process, reg *wsdl.Registry) (*Result, error) {
	if err := p.Validate(reg); err != nil {
		return nil, fmt.Errorf("mapping: %w", err)
	}
	b := &builder{
		owner: p.Owner,
		reg:   reg,
		a:     afsa.New(p.Name + " public"),
		table: Table{},
	}
	entry := b.a.AddState()
	b.a.SetStart(entry)
	b.assoc(entry, bpel.Path{ProcessRootElement})

	rootPath := bpel.Path{bpel.Element(p.Body)}
	exit, terminated, err := b.derive(p.Body, entry, rootPath, nil)
	if err != nil {
		return nil, fmt.Errorf("mapping: process %q: %w", p.Name, err)
	}
	if !terminated {
		b.a.SetFinal(exit, true)
	}
	if err := b.a.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %w", ErrInternal, err)
	}

	minimized, members := b.a.MinimizeWithMap()
	minimized.Name = b.a.Name
	table := Table{}
	for newQ, olds := range members {
		for _, old := range olds {
			table[newQ] = append(table[newQ], b.table[old]...)
		}
	}
	// Canonicalize the per-state path lists.
	for q := range table {
		table[q] = dedupPaths(table[q])
	}
	return &Result{Automaton: minimized, Table: table, Raw: b.a, RawTable: b.table}, nil
}

func dedupPaths(in []bpel.Path) []bpel.Path {
	var out []bpel.Path
	seen := map[string]bool{}
	for _, p := range in {
		k := p.String()
		if !seen[k] {
			seen[k] = true
			out = append(out, p)
		}
	}
	return out
}

type builder struct {
	owner string
	reg   *wsdl.Registry
	a     *afsa.Automaton
	table Table
}

func (b *builder) assoc(q afsa.StateID, path bpel.Path) {
	b.table[q] = append(b.table[q], append(bpel.Path(nil), path...))
}

// newState creates a state associated with the enclosing block path.
func (b *builder) newState(encl bpel.Path) afsa.StateID {
	q := b.a.AddState()
	b.assoc(q, encl)
	return q
}

// derive builds the automaton fragment for act starting at entry.
// path is act's own path, encl the path used for states created at
// act's level (the enclosing block for basic activities), follow the
// FIRST set of whatever executes after act (used for annotations).
// It returns the exit state and whether control never flows past act.
func (b *builder) derive(act bpel.Activity, entry afsa.StateID, path bpel.Path, follow []label.Label) (afsa.StateID, bool, error) {
	switch t := act.(type) {
	case *bpel.Receive:
		to := b.newState(path.Parent())
		b.a.AddTransition(entry, label.New(t.Partner, b.owner, t.Op), to)
		return to, false, nil

	case *bpel.Reply:
		to := b.newState(path.Parent())
		b.a.AddTransition(entry, label.New(b.owner, t.Partner, t.Op), to)
		return to, false, nil

	case *bpel.Invoke:
		if t.Sync {
			mid := b.newState(path.Parent())
			to := b.newState(path.Parent())
			b.a.AddTransition(entry, label.New(b.owner, t.Partner, t.Op), mid)
			b.a.AddTransition(mid, label.New(t.Partner, b.owner, t.Op), to)
			return to, false, nil
		}
		to := b.newState(path.Parent())
		b.a.AddTransition(entry, label.New(b.owner, t.Partner, t.Op), to)
		return to, false, nil

	case *bpel.Assign, *bpel.Empty:
		return entry, false, nil

	case *bpel.Terminate:
		b.a.SetFinal(entry, true)
		return entry, true, nil

	case *bpel.Sequence:
		b.assoc(entry, path)
		cur := entry
		for i, child := range t.Children {
			childFollow := b.sequenceFollow(t.Children[i+1:], follow)
			childPath := path.Child(bpel.Element(child))
			exit, terminated, err := b.derive(child, cur, childPath, childFollow)
			if err != nil {
				return afsa.None, false, err
			}
			if terminated {
				return exit, true, nil
			}
			cur = exit
		}
		return cur, false, nil

	case *bpel.Scope:
		b.assoc(entry, path)
		return b.derive(t.Body, entry, path.Child(bpel.Element(t.Body)), follow)

	case *bpel.Switch:
		return b.deriveSwitch(t, entry, path, follow)

	case *bpel.Pick:
		return b.derivePick(t, entry, path, follow)

	case *bpel.While:
		return b.deriveWhile(t, entry, path, follow)

	case *bpel.Flow:
		return b.deriveFlow(t, entry, path, follow)
	}
	return afsa.None, false, fmt.Errorf("unsupported activity kind %v", act.Kind())
}

// sequenceFollow computes the FIRST set of rest·follow.
func (b *builder) sequenceFollow(rest []bpel.Activity, follow []label.Label) []label.Label {
	out, nullable := b.firstOfList(rest)
	if nullable {
		out = append(out, follow...)
	}
	return dedupLabels(out)
}

func (b *builder) deriveSwitch(t *bpel.Switch, entry afsa.StateID, path bpel.Path, follow []label.Label) (afsa.StateID, bool, error) {
	b.assoc(entry, path)

	branches := make([]bpel.Activity, 0, len(t.Cases)+1)
	for _, c := range t.Cases {
		branches = append(branches, c.Body)
	}
	implicitElse := false
	if t.Else != nil {
		branches = append(branches, t.Else)
	} else {
		implicitElse = true // a switch without otherwise may fall through
	}

	// Internal choice: every branch alternative is mandatory for the
	// partner (DESIGN.md §3). One conjunct per branch: OR of the
	// branch's first labels (branches starting invisibly contribute
	// their follow set).
	b.annotateInternalChoice(entry, branches, implicitElse, follow)

	var exits []afsa.StateID
	allTerminated := true
	for _, branch := range branches {
		exit, terminated, err := b.derive(branch, entry, path.Child(bpel.Element(branch)), follow)
		if err != nil {
			return afsa.None, false, err
		}
		if !terminated {
			allTerminated = false
			exits = append(exits, exit)
		}
	}
	if implicitElse {
		allTerminated = false
		exits = append(exits, entry)
	}
	if allTerminated {
		return entry, true, nil
	}
	return b.join(exits, path), false, nil
}

func (b *builder) derivePick(t *bpel.Pick, entry afsa.StateID, path bpel.Path, follow []label.Label) (afsa.StateID, bool, error) {
	b.assoc(entry, path)
	var exits []afsa.StateID
	allTerminated := true
	for _, br := range t.Branches {
		bodyPath := path.Child(bpel.Element(br.Body))
		to := b.newState(bodyPath)
		b.a.AddTransition(entry, label.New(br.Partner, b.owner, br.Op), to)
		exit, terminated, err := b.derive(br.Body, to, bodyPath, follow)
		if err != nil {
			return afsa.None, false, err
		}
		if !terminated {
			allTerminated = false
			exits = append(exits, exit)
		}
	}
	if allTerminated {
		return entry, true, nil
	}
	return b.join(exits, path), false, nil
}

func (b *builder) deriveWhile(t *bpel.While, entry afsa.StateID, path bpel.Path, follow []label.Label) (afsa.StateID, bool, error) {
	b.assoc(entry, path)
	infinite := InfiniteCond(t.Cond)

	bodyFirst, _ := b.firstOf(t.Body)
	bodyFollow := dedupLabels(append(append([]label.Label(nil), bodyFirst...), follow...))
	if !infinite && len(bodyFirst) > 0 && len(follow) > 0 {
		// Iterating or exiting is the owner's internal choice: both the
		// loop body and the continuation are mandatory alternatives.
		b.annotateConjuncts(entry, [][]label.Label{bodyFirst, follow})
	}

	exit, terminated, err := b.derive(t.Body, entry, path.Child(bpel.Element(t.Body)), bodyFollow)
	if err != nil {
		return afsa.None, false, err
	}
	if !terminated && exit != entry {
		// Loop back: the position after the body is the loop decision
		// point again.
		b.a.AddTransition(exit, label.Epsilon, entry)
	}
	if infinite {
		// The loop can only be left by a terminate inside the body;
		// control never flows past the while.
		return entry, true, nil
	}
	return entry, false, nil
}

func (b *builder) deriveFlow(t *bpel.Flow, entry afsa.StateID, path bpel.Path, follow []label.Label) (afsa.StateID, bool, error) {
	b.assoc(entry, path)
	// Build each branch as a standalone fragment, interleave them, and
	// splice the product between entry and a fresh exit state. States
	// imported from the product are associated with the flow block
	// (finer-grained provenance inside parallel branches is not
	// required by the paper's scenarios).
	var product *afsa.Automaton
	for _, branch := range t.Branches {
		frag, err := b.fragment(branch, path.Child(bpel.Element(branch)))
		if err != nil {
			return afsa.None, false, err
		}
		if product == nil {
			product = frag
		} else {
			product = product.Shuffle(frag)
		}
	}
	if product == nil {
		return entry, false, nil
	}
	exit := b.newState(path)
	offset := int(b.a.NumStates())
	for q := 0; q < product.NumStates(); q++ {
		b.newState(path)
	}
	for q := 0; q < product.NumStates(); q++ {
		from := afsa.StateID(offset + q)
		for _, f := range product.Annotations(afsa.StateID(q)) {
			b.a.Annotate(from, f)
		}
		for _, tr := range product.Transitions(afsa.StateID(q)) {
			b.a.AddTransition(from, tr.Label, afsa.StateID(offset+int(tr.To)))
		}
		if product.IsFinal(afsa.StateID(q)) {
			b.a.AddTransition(from, label.Epsilon, exit)
		}
	}
	b.a.AddTransition(entry, label.Epsilon, afsa.StateID(offset+int(product.Start())))
	return exit, false, nil
}

// fragment derives act in a throwaway builder and returns the
// automaton with the branch exit marked final.
func (b *builder) fragment(act bpel.Activity, path bpel.Path) (*afsa.Automaton, error) {
	fb := &builder{owner: b.owner, reg: b.reg, a: afsa.New("fragment"), table: Table{}}
	entry := fb.a.AddState()
	fb.a.SetStart(entry)
	exit, terminated, err := fb.derive(act, entry, path, nil)
	if err != nil {
		return nil, err
	}
	if terminated {
		return nil, fmt.Errorf("terminate inside a flow is not supported (block %s)", path)
	}
	fb.a.SetFinal(exit, true)
	return fb.a, nil
}

// join merges several branch exits into one state. A single exit is
// returned unchanged; multiple exits are connected by ε to a fresh
// join state associated with the enclosing block.
func (b *builder) join(exits []afsa.StateID, encl bpel.Path) afsa.StateID {
	exits = dedupStateIDs(exits)
	if len(exits) == 1 {
		return exits[0]
	}
	j := b.newState(encl)
	for _, e := range exits {
		b.a.AddTransition(e, label.Epsilon, j)
	}
	return j
}

func dedupStateIDs(in []afsa.StateID) []afsa.StateID {
	sort.Slice(in, func(i, j int) bool { return in[i] < in[j] })
	out := in[:0]
	prev := afsa.None
	for _, s := range in {
		if s != prev {
			out = append(out, s)
			prev = s
		}
	}
	return out
}

// annotateInternalChoice annotates the branch state of an internal
// choice: one conjunct per branch, each the OR of the branch's first
// labels (extended by the follow set when the branch can complete
// invisibly). Trivial conjuncts (no labels at all) are skipped; an
// annotation needs at least two conjuncts to constrain anything.
func (b *builder) annotateInternalChoice(q afsa.StateID, branches []bpel.Activity, implicitElse bool, follow []label.Label) {
	var conjuncts [][]label.Label
	for _, branch := range branches {
		first, nullable := b.firstOf(branch)
		if nullable {
			first = append(first, follow...)
		}
		first = dedupLabels(first)
		if len(first) == 0 {
			continue
		}
		conjuncts = append(conjuncts, first)
	}
	if implicitElse && len(follow) > 0 {
		conjuncts = append(conjuncts, dedupLabels(follow))
	}
	b.annotateConjuncts(q, conjuncts)
}

func (b *builder) annotateConjuncts(q afsa.StateID, conjuncts [][]label.Label) {
	if len(conjuncts) < 2 {
		return
	}
	parts := make([]*formula.Formula, 0, len(conjuncts))
	for _, c := range conjuncts {
		vars := make([]*formula.Formula, 0, len(c))
		for _, l := range c {
			vars = append(vars, formula.Var(string(l)))
		}
		parts = append(parts, formula.Or(vars...))
	}
	f := formula.And(parts...)
	if !f.IsTrue() {
		b.a.Annotate(q, f)
	}
}

// firstOf computes the FIRST label set of act and whether act can
// complete without emitting any message (nullable). A terminate is not
// nullable: control never reaches the continuation.
func (b *builder) firstOf(act bpel.Activity) ([]label.Label, bool) {
	switch t := act.(type) {
	case *bpel.Receive:
		return []label.Label{label.New(t.Partner, b.owner, t.Op)}, false
	case *bpel.Reply:
		return []label.Label{label.New(b.owner, t.Partner, t.Op)}, false
	case *bpel.Invoke:
		return []label.Label{label.New(b.owner, t.Partner, t.Op)}, false
	case *bpel.Assign, *bpel.Empty:
		return nil, true
	case *bpel.Terminate:
		return nil, false
	case *bpel.Sequence:
		return b.firstOfList(t.Children)
	case *bpel.Scope:
		return b.firstOf(t.Body)
	case *bpel.Flow:
		var out []label.Label
		nullable := true
		for _, br := range t.Branches {
			f, n := b.firstOf(br)
			out = append(out, f...)
			nullable = nullable && n
		}
		return dedupLabels(out), nullable
	case *bpel.Switch:
		var out []label.Label
		nullable := t.Else == nil // fall-through when no case matches
		for _, c := range t.Cases {
			f, n := b.firstOf(c.Body)
			out = append(out, f...)
			nullable = nullable || n
		}
		if t.Else != nil {
			f, n := b.firstOf(t.Else)
			out = append(out, f...)
			nullable = nullable || n
		}
		return dedupLabels(out), nullable
	case *bpel.Pick:
		var out []label.Label
		for _, br := range t.Branches {
			out = append(out, label.New(br.Partner, b.owner, br.Op))
		}
		return dedupLabels(out), false
	case *bpel.While:
		f, _ := b.firstOf(t.Body)
		return f, !InfiniteCond(t.Cond) // zero iterations possible unless infinite
	}
	return nil, true
}

func (b *builder) firstOfList(acts []bpel.Activity) ([]label.Label, bool) {
	var out []label.Label
	for _, a := range acts {
		f, nullable := b.firstOf(a)
		out = append(out, f...)
		if !nullable {
			return dedupLabels(out), false
		}
	}
	return dedupLabels(out), true
}

func dedupLabels(in []label.Label) []label.Label {
	var out []label.Label
	seen := map[label.Label]bool{}
	for _, l := range in {
		if !seen[l] {
			seen[l] = true
			out = append(out, l)
		}
	}
	return out
}

// InfiniteCond reports whether a while condition is the constant truth
// the paper uses for non-terminating loops ("1 = 1", "true").
func InfiniteCond(cond string) bool {
	c := strings.ToLower(strings.ReplaceAll(cond, " ", ""))
	return c == "1=1" || c == "true"
}
