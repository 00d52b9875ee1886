package core

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/afsa"
	"repro/internal/bpel"
	"repro/internal/label"
	"repro/internal/mapping"
	"repro/internal/wsdl"
)

// Party is one participant of a choreography: its private process, the
// public process derived from it with the mapping table between the
// two (Sec. 3.3), and the alphabet of the public process, which every
// pair and partner walk reads.
type Party struct {
	Name     string
	Private  *bpel.Process
	Public   *afsa.Automaton
	Table    mapping.Table
	Alphabet label.Set
}

// NewParty returns the party owning p, whose public process and
// mapping table res were derived from p.
func NewParty(p *bpel.Process, res *mapping.Result) Party {
	return Party{Name: p.Owner, Private: p, Public: res.Automaton, Table: res.Table, Alphabet: res.Automaton.Alphabet()}
}

// Parties is what the evolution loop reads of a choreography.
type Parties interface {
	// Parties returns the party names in registration order; the
	// caller does not modify the slice.
	Parties() []string
	// Party returns a registered party.
	Party(name string) (*Party, bool)
	// BilateralView returns τ_forParty(p.Public), the view forParty has
	// of the registered party p (Sec. 3.4). An implementation may
	// memoize it.
	BilateralView(p *Party, forParty string) *afsa.Automaton
}

// interacts reports whether one of the alphabets holds a message
// between parties a and b.
func interacts(a, b string, alphabets ...label.Set) bool {
	for _, alphabet := range alphabets {
		for l := range alphabet {
			if l.Between(a, b) {
				return true
			}
		}
	}
	return false
}

// InteractingPairs returns the pairs of parties that exchange at least
// one message, in registration order.
func InteractingPairs(ps Parties) [][2]string {
	names := ps.Parties()
	var out [][2]string
	for i, a := range names {
		pa, _ := ps.Party(a)
		for _, b := range names[i+1:] {
			if pb, _ := ps.Party(b); interacts(a, b, pa.Alphabet, pb.Alphabet) {
				out = append(out, [2]string{a, b})
			}
		}
	}
	return out
}

// Partners returns, sorted, the registered parties other than p that
// exchange a message with p: in p's public process, in theirs, or in
// one of the extra alphabets, such as a changed public process of p's.
func Partners(ps Parties, p *Party, extra ...label.Set) []string {
	var out []string
	for _, name := range ps.Parties() {
		if name == p.Name {
			continue
		}
		if q, _ := ps.Party(name); interacts(p.Name, name, p.Alphabet, q.Alphabet) || interacts(p.Name, name, extra...) {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// Evolution is the analysis of one change of a party's private process
// (paper Fig. 4).
type Evolution struct {
	// Party is the change originator.
	Party string
	// NewPrivate, NewPublic and NewTable are the originator's state
	// after the change; OldPublic is its public process before.
	NewPrivate *bpel.Process
	OldPublic  *afsa.Automaton
	NewPublic  *afsa.Automaton
	NewTable   mapping.Table
	// PublicChanged reports whether the public process changed at all.
	PublicChanged bool
	// Impacts holds one entry per partner, in partner-name order, when
	// the public process changed.
	Impacts []PartnerImpact
}

// NeedsPropagation reports whether any partner requires propagation
// (some impact is variant).
func (e *Evolution) NeedsPropagation() bool {
	for _, im := range e.Impacts {
		if im.ViewChanged && im.Classification.Scope == ScopeVariant {
			return true
		}
	}
	return false
}

// Impact returns the impact on one partner.
func (e *Evolution) Impact(partner string) (*PartnerImpact, bool) {
	for i := range e.Impacts {
		if e.Impacts[i].Partner == partner {
			return &e.Impacts[i], true
		}
	}
	return nil, false
}

// Evolve runs the analysis of the controlled-evolution loop (paper
// Fig. 4) on cand, a registered party with its changed private process
// and the public process derived from it. It compares cand's public
// process with the party's current one and, when it changed, runs
// AnalyzeImpact for every party that exchanges a message with the
// originator before or after the change, in name order, resolving
// suggested operations through reg. It mutates nothing and checks ctx
// before each partner.
func Evolve(ctx context.Context, ps Parties, cand *Party, reg *wsdl.Registry) (Evolution, error) {
	orig, ok := ps.Party(cand.Name)
	if !ok {
		return Evolution{}, fmt.Errorf("core: unknown party %q", cand.Name)
	}
	evo := Evolution{
		Party:         cand.Name,
		NewPrivate:    cand.Private,
		OldPublic:     orig.Public,
		NewPublic:     cand.Public,
		NewTable:      cand.Table,
		PublicChanged: !afsa.Equivalent(orig.Public, cand.Public),
	}
	if !evo.PublicChanged {
		return evo, nil
	}
	for _, name := range Partners(ps, orig, cand.Alphabet) {
		if err := ctx.Err(); err != nil {
			return Evolution{}, err
		}
		partner, _ := ps.Party(name)
		im, err := AnalyzeImpact(cand.Name, ps.BilateralView(orig, name), cand.Public.View(name), partner,
			func() *afsa.Automaton { return ps.BilateralView(partner, cand.Name) }, reg)
		if err != nil {
			return Evolution{}, err
		}
		evo.Impacts = append(evo.Impacts, im)
	}
	return evo, nil
}
