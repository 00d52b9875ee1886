package core

import (
	"repro/internal/afsa"
	"repro/internal/label"
	"repro/internal/wsdl"
)

// PartnerImpact describes the effect of a change on one partner.
type PartnerImpact struct {
	Partner string
	// ViewChanged reports whether the partner's view of the
	// originator changed at all; when false only the views are set
	// ("change effects can be kept local", Sec. 3.1).
	ViewChanged bool
	// Classification is the two-dimensional classification of the
	// view change (Defs. 5/6).
	Classification Classification
	// OldView/NewView are the partner's views of the originator's
	// public process before and after the change.
	OldView, NewView *afsa.Automaton
	// Plans are the propagation plans (nil for invariant changes).
	Plans []*Plan
	// Suggestions are ready-to-review private adaptations per plan.
	Suggestions []Suggestion
}

// AnalyzeImpact is the per-partner step of the controlled-evolution
// loop (paper Fig. 4) for a change of party's public process;
// oldView/newView are the partner's views of it before and after the
// change. When the view changed, the change is classified (Defs. 5/6)
// against partnerView() — the partner's view of party, requested only
// then — and a variant change is planned (Secs. 5.2/5.3 steps 1–3)
// against the partner's current public process and turned into
// suggested adaptations of its private process, resolving operations
// through reg. A variant change that neither adds nor removes
// sequences yields no plan.
func AnalyzeImpact(party string, oldView, newView *afsa.Automaton, partner *Party, partnerView func() *afsa.Automaton, reg *wsdl.Registry) (PartnerImpact, error) {
	im := PartnerImpact{Partner: partner.Name, OldView: oldView, NewView: newView}
	im.ViewChanged = !afsa.Equivalent(oldView, newView)
	if !im.ViewChanged {
		return im, nil
	}
	var err error
	if im.Classification, err = Classify(oldView, newView, partnerView()); err != nil {
		return PartnerImpact{}, err
	}
	if im.Classification.Scope != ScopeVariant {
		return im, nil
	}
	// Plans run against the partner's full public process so the hints
	// stay in the mapping table's state space.
	if im.Classification.Kind.Additive() {
		p, err := PlanAdditive(newView, partner.Public, partner.Table)
		if err != nil {
			return PartnerImpact{}, err
		}
		im.Plans = append(im.Plans, p)
	}
	if im.Classification.Kind.Subtractive() {
		// Conversations with third parties are unconstrained by this
		// change: lift the view over the partner's foreign labels.
		foreign := label.NewSet()
		for l := range partner.Alphabet {
			if !l.Involves(party) {
				foreign.Add(l)
			}
		}
		view := newView
		if len(foreign) > 0 {
			view = LiftForeign(view, foreign)
		}
		p, err := PlanSubtractive(view, partner.Public, partner.Table)
		if err != nil {
			return PartnerImpact{}, err
		}
		im.Plans = append(im.Plans, p)
	}
	sugg := &Suggester{Private: partner.Private, Registry: reg}
	for _, p := range im.Plans {
		im.Suggestions = append(im.Suggestions, sugg.Suggest(p)...)
	}
	return im, nil
}
