package core

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/afsa"
	"repro/internal/bpel"
	"repro/internal/label"
	"repro/internal/mapping"
)

// Hint records one observable difference between the partner's
// current public process B and its adapted version B', located by the
// parallel traversal of Sec. 5.2/5.3 step 3 ("comparable to
// bi-simulation").
type Hint struct {
	// State is the state of B where the difference becomes visible.
	State afsa.StateID
	// Label is the message that was added to (Added=true) or removed
	// from (Added=false) B's behavior at State.
	Label label.Label
	// Added distinguishes additive from subtractive hints.
	Added bool
}

func (h Hint) String() string {
	verb := "remove"
	if h.Added {
		verb = "add"
	}
	return fmt.Sprintf("%s %s at state %d", verb, h.Label, h.State)
}

// Region is a private-process area derived from a hint through the
// mapping table (Sec. 3.3).
type Region struct {
	Hint Hint
	// Blocks are the BPEL block names associated with the hint state
	// (the paper's Table 1 row).
	Blocks []string
	// Paths are the full block paths, innermost-first candidates for
	// the adaptation.
	Paths []bpel.Path
}

func (r Region) String() string {
	return fmt.Sprintf("%s → blocks {%s}", r.Hint, strings.Join(r.Blocks, ", "))
}

// Plan is the outcome of propagation planning for one partner
// (Secs. 5.2/5.3 steps 1–3). Applying the suggested private changes
// and re-deriving the public process (steps 4–5) is the caller's
// decision — partner processes are autonomous (Sec. 3.1).
type Plan struct {
	// Kind is additive or subtractive (the dimension that triggered
	// the plan).
	Kind ChangeKind
	// Diff is the difference automaton: the added message sequences
	// A'' = τ(A') \ B for additive changes (Fig. 13a), the removed
	// sequences B \ τ(A') for subtractive ones (Fig. 17a).
	Diff *afsa.Automaton
	// NewPartnerPublic is the adapted partner public process B'
	// (Fig. 13b / Fig. 17b): the basis for the private adaptations.
	NewPartnerPublic *afsa.Automaton
	// Hints are the state-level differences between B and B'.
	Hints []Hint
	// Regions map the hints into the partner's private process.
	Regions []Region
	// Counterpart maps each visited state of B to the first state of
	// NewPartnerPublic it was paired with during the parallel
	// traversal; the suggestion engine synthesizes replacement
	// fragments from these B' states.
	Counterpart map[afsa.StateID]afsa.StateID
}

// PlanAdditive executes steps 1–3 of Sec. 5.2 for one partner:
//
//  1. A” := τ_partner(A') \ B — the newly inserted sequences,
//  2. B'  := A” ∪ B — the adapted partner public process,
//  3. parallel traversal of B' against B to locate the states where
//     new transitions appear, mapped into private regions via tbl.
//
// newView is the partner's view of the originator's changed public
// process; partnerB the partner's current public process; tbl the
// mapping table produced when partnerB was derived.
func PlanAdditive(newView, partnerB *afsa.Automaton, tbl mapping.Table) (*Plan, error) {
	diff := newView.Difference(partnerB)
	diff.Name = fmt.Sprintf("(%s \\ %s)", newView.Name, partnerB.Name)
	newBRaw := diff.Union(partnerB)
	newB := newBRaw.Minimize()
	newB.Name = partnerB.Name + "'"
	hints, counterpart := detect(newB, partnerB, true)
	plan := &Plan{
		Kind:             KindAdditive,
		Diff:             diff.Minimize(),
		NewPartnerPublic: newB,
		Hints:            hints,
		Regions:          regions(hints, tbl),
		Counterpart:      counterpart,
	}
	plan.Diff.Name = diff.Name
	return plan, nil
}

// PlanSubtractive executes steps 1–3 of Sec. 5.3 for one partner:
//
//  1. removed := B \ τ_partner(A') — the sequences the originator no
//     longer supports (the paper's difference automaton, Fig. 17a),
//  2. B' := B \ removed — the adapted partner public process,
//  3. parallel traversal of B against B' to locate the states whose
//     transitions disappeared, mapped into private regions via tbl.
func PlanSubtractive(newView, partnerB *afsa.Automaton, tbl mapping.Table) (*Plan, error) {
	removed := partnerB.Difference(newView)
	removed.Name = fmt.Sprintf("(%s \\ %s)", partnerB.Name, newView.Name)
	newB := partnerB.Difference(removed).Minimize()
	newB.Name = partnerB.Name + "'"
	hints, counterpart := detect(partnerB, newB, false)
	plan := &Plan{
		Kind:             KindSubtractive,
		Diff:             removed.Minimize(),
		NewPartnerPublic: newB,
		Hints:            hints,
		Regions:          regions(hints, tbl),
		Counterpart:      counterpart,
	}
	plan.Diff.Name = removed.Name
	return plan, nil
}

func regions(hints []Hint, tbl mapping.Table) []Region {
	out := make([]Region, 0, len(hints))
	for _, h := range hints {
		out = append(out, Region{
			Hint:   h,
			Blocks: tbl.Blocks(h.State),
			Paths:  tbl.Paths(h.State),
		})
	}
	return out
}

// detect walks lead and trail in parallel on their common labels (the
// paper: "the difference automaton is traversed parallel to the
// original public process (comparable to bi-simulation)") and emits a
// hint whenever lead has a transition trail lacks. The hint
// state belongs to the partner's *current* public process B: for added
// hints B is the trail (hintOnTrail), for removed hints the lead. The
// counterpart map sends each B state to the first B' state it was
// paired with. Deterministic inputs keep their state identity; only
// nondeterministic inputs are determinized (which would detach the
// mapping table — the pipeline always hands in minimized DFAs).
func detect(lead, trail *afsa.Automaton, hintOnTrail bool) ([]Hint, map[afsa.StateID]afsa.StateID) {
	dl, dt := lead, trail
	if !dl.Deterministic() {
		dl = dl.Determinize()
	}
	if !dt.Deterministic() {
		dt = dt.Determinize()
	}
	type pair struct{ l, t afsa.StateID }
	counterpart := map[afsa.StateID]afsa.StateID{}
	note := func(p pair) {
		// Record B-state → B'-state.
		b, nb := p.l, p.t
		if hintOnTrail {
			b, nb = p.t, p.l
		}
		if _, ok := counterpart[b]; !ok {
			counterpart[b] = nb
		}
	}
	seen := map[pair]bool{}
	var hints []Hint
	hintSeen := map[string]bool{}
	if dl.Start() == afsa.None || dt.Start() == afsa.None {
		return nil, counterpart
	}
	queue := []pair{{dl.Start(), dt.Start()}}
	seen[queue[0]] = true
	note(queue[0])
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		trailSteps := map[label.Label]afsa.StateID{}
		for _, tr := range dt.Transitions(cur.t) {
			trailSteps[tr.Label] = tr.To
		}
		for _, tr := range dl.Transitions(cur.l) {
			to, ok := trailSteps[tr.Label]
			if !ok {
				hintState := cur.l
				if hintOnTrail {
					hintState = cur.t
				}
				key := fmt.Sprintf("%d|%s", hintState, tr.Label)
				if !hintSeen[key] {
					hintSeen[key] = true
					hints = append(hints, Hint{State: hintState, Label: tr.Label, Added: hintOnTrail})
				}
				continue
			}
			next := pair{tr.To, to}
			if !seen[next] {
				seen[next] = true
				note(next)
				queue = append(queue, next)
			}
		}
	}
	sort.Slice(hints, func(i, j int) bool {
		if hints[i].State != hints[j].State {
			return hints[i].State < hints[j].State
		}
		return hints[i].Label < hints[j].Label
	})
	return hints, counterpart
}
