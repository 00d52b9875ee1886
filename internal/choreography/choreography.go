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
	"context"
	"fmt"
	"strings"

	"repro/internal/afsa"
	"repro/internal/bpel"
	"repro/internal/change"
	"repro/internal/core"
	"repro/internal/mapping"
	"repro/internal/wsdl"
)

// Party is one participant: its private process and the derived
// public process with mapping table and alphabet.
type Party = core.Party

// Choreography is a set of parties exchanging messages through their
// public processes. It is the core.Parties the library's evolution
// analysis reads.
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
	party := core.NewParty(p.Clone(), res)
	c.parties[p.Owner] = &party
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

// BilateralView returns τ_forParty(p.Public), computed afresh on every
// call.
func (c *Choreography) BilateralView(p *Party, forParty string) *afsa.Automaton {
	return p.Public.View(forParty)
}

// InteractingPairs returns the party pairs that exchange at least one
// message, in registration order.
func (c *Choreography) InteractingPairs() [][2]string {
	return core.InteractingPairs(c)
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
	core.Evolution
	Op change.Operation
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
	cand := core.NewParty(newPrivate, res)
	evo, err := core.Evolve(context.TODO(), c, &cand, c.reg)
	if err != nil {
		return nil, err
	}
	return &EvolutionReport{Evolution: evo, Op: op}, nil
}

// Commit applies an analyzed evolution to the originator party.
func (c *Choreography) Commit(report *EvolutionReport) error {
	p, ok := c.parties[report.Party]
	if !ok {
		return fmt.Errorf("choreography: unknown party %q", report.Party)
	}
	*p = core.NewParty(report.NewPrivate.Clone(), &mapping.Result{Automaton: report.NewPublic, Table: report.NewTable})
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
	*p = core.NewParty(process.Clone(), res)
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
