// Package choreography ties the framework together: it holds the
// parties of a process choreography (private BPEL processes plus the
// derived public aFSAs and mapping tables) and drives the controlled
// evolution flow of paper Fig. 4:
//
//	change private process → re-derive public view → consistency
//	check against each partner → (if variant) propagation plan and
//	suggested partner adaptations → partner applies and re-derives →
//	re-check.
//
// Evolve is pure analysis: it never mutates the choreography. Commit
// and CommitParty apply the originator's change and the partners'
// adaptations explicitly, honoring partner autonomy (Sec. 3.1).
package choreography

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/afsa"
	"repro/internal/bpel"
	"repro/internal/change"
	"repro/internal/core"
	"repro/internal/mapping"
	"repro/internal/wsdl"
)

// Party is one participant: its private process and the derived
// public process with mapping table.
type Party struct {
	Name    string
	Private *bpel.Process
	Public  *afsa.Automaton
	Table   mapping.Table
}

// Choreography is a set of parties exchanging messages through their
// public processes.
type Choreography struct {
	reg     *wsdl.Registry
	parties map[string]*Party
	order   []string
}

// New returns an empty choreography validating against reg (which may
// be nil).
func New(reg *wsdl.Registry) *Choreography {
	return &Choreography{reg: reg, parties: map[string]*Party{}}
}

// Registry returns the WSDL registry.
func (c *Choreography) Registry() *wsdl.Registry { return c.reg }

// AddParty derives the public process of p and registers the party
// under p.Owner.
func (c *Choreography) AddParty(p *bpel.Process) error {
	if p == nil {
		return fmt.Errorf("choreography: nil process")
	}
	if _, dup := c.parties[p.Owner]; dup {
		return fmt.Errorf("choreography: party %q already present", p.Owner)
	}
	res, err := mapping.Derive(p, c.reg)
	if err != nil {
		return err
	}
	c.parties[p.Owner] = &Party{Name: p.Owner, Private: p.Clone(), Public: res.Automaton, Table: res.Table}
	c.order = append(c.order, p.Owner)
	return nil
}

// Party returns a registered party.
func (c *Choreography) Party(name string) (*Party, bool) {
	p, ok := c.parties[name]
	return p, ok
}

// Parties returns the party names in registration order.
func (c *Choreography) Parties() []string {
	return append([]string(nil), c.order...)
}

// View returns τ_forParty(of's public process): the bilateral view the
// partner forParty has on party of (Sec. 3.4).
func (c *Choreography) View(of, forParty string) (*afsa.Automaton, error) {
	p, ok := c.parties[of]
	if !ok {
		return nil, fmt.Errorf("choreography: unknown party %q", of)
	}
	return p.Public.View(forParty), nil
}

// InteractingPairs returns the party pairs that exchange at least one
// message, in deterministic order.
func (c *Choreography) InteractingPairs() [][2]string {
	var out [][2]string
	for i := 0; i < len(c.order); i++ {
		for j := i + 1; j < len(c.order); j++ {
			a, b := c.order[i], c.order[j]
			if c.interacts(a, b) {
				out = append(out, [2]string{a, b})
			}
		}
	}
	return out
}

func (c *Choreography) interacts(a, b string) bool {
	for l := range c.parties[a].Public.Alphabet() {
		if l.Between(a, b) {
			return true
		}
	}
	for l := range c.parties[b].Public.Alphabet() {
		if l.Between(a, b) {
			return true
		}
	}
	return false
}

// PairConsistent checks bilateral consistency of two parties: the
// intersection of their mutual views is annotated-non-empty
// (Sec. 3.2).
func (c *Choreography) PairConsistent(a, b string) (bool, error) {
	pa, ok := c.parties[a]
	if !ok {
		return false, fmt.Errorf("choreography: unknown party %q", a)
	}
	pb, ok := c.parties[b]
	if !ok {
		return false, fmt.Errorf("choreography: unknown party %q", b)
	}
	return afsa.Consistent(pa.Public.View(b), pb.Public.View(a))
}

// PairReport is the consistency status of one interacting pair.
type PairReport struct {
	A, B       string
	Consistent bool
}

// ConsistencyReport is the result of checking every interacting pair.
type ConsistencyReport struct {
	Pairs []PairReport
}

// Consistent reports whether every pair is consistent.
func (r *ConsistencyReport) Consistent() bool {
	for _, p := range r.Pairs {
		if !p.Consistent {
			return false
		}
	}
	return true
}

func (r *ConsistencyReport) String() string {
	var b strings.Builder
	for _, p := range r.Pairs {
		status := "consistent"
		if !p.Consistent {
			status = "INCONSISTENT"
		}
		fmt.Fprintf(&b, "%s ↔ %s: %s\n", p.A, p.B, status)
	}
	return b.String()
}

// Check verifies bilateral consistency of every interacting pair —
// the paper's global criterion is pairwise (bilateral) consistency.
func (c *Choreography) Check() (*ConsistencyReport, error) {
	rep := &ConsistencyReport{}
	for _, pair := range c.InteractingPairs() {
		ok, err := c.PairConsistent(pair[0], pair[1])
		if err != nil {
			return nil, err
		}
		rep.Pairs = append(rep.Pairs, PairReport{A: pair[0], B: pair[1], Consistent: ok})
	}
	return rep, nil
}

// EvolutionReport is the outcome of analyzing one private-process
// change (paper Fig. 4).
type EvolutionReport struct {
	Party      string
	Op         change.Operation
	NewPrivate *bpel.Process
	OldPublic  *afsa.Automaton
	NewPublic  *afsa.Automaton
	NewTable   mapping.Table
	// PublicChanged reports whether the public process changed at all.
	PublicChanged bool
	Impacts       []core.PartnerImpact
}

// NeedsPropagation reports whether any partner requires propagation
// (some impact is variant).
func (r *EvolutionReport) NeedsPropagation() bool {
	for _, im := range r.Impacts {
		if im.ViewChanged && im.Classification.Scope == core.ScopeVariant {
			return true
		}
	}
	return false
}

// Evolve analyzes the application of op to party's private process
// without mutating the choreography: it recreates the public view,
// classifies the change per partner (Defs. 5/6) and, for variant
// changes, computes propagation plans and adaptation suggestions
// (Secs. 5.1–5.3).
func (c *Choreography) Evolve(party string, op change.Operation) (*EvolutionReport, error) {
	originator, ok := c.parties[party]
	if !ok {
		return nil, fmt.Errorf("choreography: unknown party %q", party)
	}
	newPrivate, err := op.Apply(originator.Private)
	if err != nil {
		return nil, fmt.Errorf("choreography: applying %s: %w", op, err)
	}
	res, err := mapping.Derive(newPrivate, c.reg)
	if err != nil {
		return nil, fmt.Errorf("choreography: deriving changed public process: %w", err)
	}
	report := &EvolutionReport{
		Party:      party,
		Op:         op,
		NewPrivate: newPrivate,
		OldPublic:  originator.Public,
		NewPublic:  res.Automaton,
		NewTable:   res.Table,
	}
	report.PublicChanged = !afsa.Equivalent(originator.Public, res.Automaton)
	if !report.PublicChanged {
		return report, nil
	}

	for _, partnerName := range c.partnersOf(party) {
		partner := c.parties[partnerName]
		impact, err := core.AnalyzeImpact(party, originator.Public.View(partnerName), res.Automaton.View(partnerName),
			core.Partner{Name: partnerName, Public: partner.Public, Table: partner.Table, Alphabet: partner.Public.Alphabet(), Private: partner.Private},
			func() *afsa.Automaton { return partner.Public.View(party) }, c.reg)
		if err != nil {
			return nil, err
		}
		report.Impacts = append(report.Impacts, impact)
	}
	return report, nil
}

// partnersOf returns the parties that exchange messages with party.
func (c *Choreography) partnersOf(party string) []string {
	seen := map[string]bool{}
	p := c.parties[party]
	for l := range p.Public.Alphabet() {
		for _, other := range [2]string{l.Sender(), l.Receiver()} {
			if other != party && other != "" {
				seen[other] = true
			}
		}
	}
	var out []string
	for name := range seen {
		if _, registered := c.parties[name]; registered {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// Commit applies an analyzed evolution to the originator party.
func (c *Choreography) Commit(report *EvolutionReport) error {
	p, ok := c.parties[report.Party]
	if !ok {
		return fmt.Errorf("choreography: unknown party %q", report.Party)
	}
	p.Private = report.NewPrivate.Clone()
	p.Public = report.NewPublic
	p.Table = report.NewTable
	return nil
}

// AdaptPartner applies adaptation operations to a partner's private
// process and returns the re-derived candidate (step 4 of
// Secs. 5.2/5.3) without committing it.
func (c *Choreography) AdaptPartner(partner string, ops []change.Operation) (*bpel.Process, *mapping.Result, error) {
	p, ok := c.parties[partner]
	if !ok {
		return nil, nil, fmt.Errorf("choreography: unknown party %q", partner)
	}
	cur := p.Private
	for _, op := range ops {
		next, err := op.Apply(cur)
		if err != nil {
			return nil, nil, fmt.Errorf("choreography: adapting %s with %s: %w", partner, op, err)
		}
		cur = next
	}
	res, err := mapping.Derive(cur, c.reg)
	if err != nil {
		return nil, nil, fmt.Errorf("choreography: re-deriving %s: %w", partner, err)
	}
	return cur, res, nil
}

// CommitParty replaces a party's private process (re-deriving its
// public process). Used to commit partner adaptations.
func (c *Choreography) CommitParty(process *bpel.Process) error {
	p, ok := c.parties[process.Owner]
	if !ok {
		return fmt.Errorf("choreography: unknown party %q", process.Owner)
	}
	res, err := mapping.Derive(process, c.reg)
	if err != nil {
		return err
	}
	p.Private = process.Clone()
	p.Public = res.Automaton
	p.Table = res.Table
	return nil
}

// ExecutableSuggestions filters the suggestions that carry a ready
// operation.
func ExecutableSuggestions(suggestions []core.Suggestion) []change.Operation {
	var ops []change.Operation
	for _, s := range suggestions {
		if s.Op != nil {
			ops = append(ops, s.Op)
		}
	}
	return ops
}
