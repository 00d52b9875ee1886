package choreography

import (
	"fmt"
	"testing"

	"repro/internal/afsa"
	"repro/internal/bpel"
	"repro/internal/change"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/label"
	"repro/internal/paperrepro"
)

// evolvedScenario builds the choreography *after* the Sec. 5.2 cancel
// evolution: accounting has the credit-check/cancel switch and the
// buyer has the Fig. 14 pick — the state from which the multi-partner
// reverse propagation below starts.
func evolvedScenario(t *testing.T) *Choreography {
	t.Helper()
	c := New(paperrepro.Registry())
	changedAcc, err := paperrepro.CancelChange().Apply(paperrepro.AccountingProcess())
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []*bpel.Process{paperrepro.Fig14BuyerProcess(), changedAcc, paperrepro.LogisticsProcess()} {
		if err := c.AddParty(p); err != nil {
			t.Fatal(err)
		}
	}
	rep, err := c.Check()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Consistent() {
		t.Fatalf("evolved scenario inconsistent:\n%s", rep)
	}
	return c
}

// TestMultiPartnerSubtractivePropagation exercises propagation onto a
// partner that talks to *more* parties than the change originator: the
// buyer reverts its cancel support (a variant subtractive change from
// the accounting perspective), and the plan against the three-party
// accounting process must go through the foreign-label lift so the
// logistics conversation stays unconstrained.
func TestMultiPartnerSubtractivePropagation(t *testing.T) {
	c := evolvedScenario(t)

	// The buyer narrows its pick back to a plain delivery receive.
	revert := change.Replace{
		Path: bpel.Path{"Sequence:buyer process", "Pick:delivery or cancel"},
		New:  &bpel.Receive{BlockName: "delivery", Partner: paperrepro.Accounting, Op: "deliveryOp"},
	}
	rep, err := c.Evolve(paperrepro.Buyer, revert)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.PublicChanged {
		t.Fatal("revert did not change the buyer public process")
	}
	var acc core.PartnerImpact
	for _, im := range rep.Impacts {
		if im.Partner == paperrepro.Accounting {
			acc = im
		}
	}
	if !acc.ViewChanged {
		t.Fatal("accounting view unchanged")
	}
	if acc.Classification.Kind != core.KindSubtractive {
		t.Fatalf("kind = %v, want subtractive", acc.Classification.Kind)
	}
	// The accounting switch mandates the cancel alternative: variant.
	if acc.Classification.Scope != core.ScopeVariant {
		t.Fatalf("scope = %v, want variant", acc.Classification.Scope)
	}
	if len(acc.Plans) != 1 {
		t.Fatalf("plans = %d", len(acc.Plans))
	}
	plan := acc.Plans[0]

	// The adapted accounting public must still contain the logistics
	// conversation (the lift keeps foreign labels unconstrained).
	foreignPreserved := false
	for l := range plan.NewPartnerPublic.Alphabet() {
		if l.Involves(paperrepro.Logistics) {
			foreignPreserved = true
		}
	}
	if !foreignPreserved {
		t.Fatalf("lifted subtractive plan dropped the logistics conversation:\n%s",
			plan.NewPartnerPublic.DebugString())
	}
	// ...but no longer the cancel message.
	if plan.NewPartnerPublic.Alphabet().Has(lbl("A#B#cancelOp")) {
		t.Fatalf("cancel behavior survived the subtractive plan:\n%s", plan.NewPartnerPublic.DebugString())
	}

	// A hint names the cancel message as removed.
	foundCancel := false
	for _, h := range plan.Hints {
		if h.Label == lbl("A#B#cancelOp") && !h.Added {
			foundCancel = true
		}
	}
	if !foundCancel {
		t.Fatalf("hints = %v, want removed A#B#cancelOp", plan.Hints)
	}

	// The suggestion engine proposes dropping the cancel-sending
	// activity; applying it restores consistency.
	ops := ExecutableSuggestions(acc.Suggestions)
	if len(ops) == 0 {
		t.Fatalf("no executable suggestions: %v", acc.Suggestions)
	}
	newAcc, res, err := c.AdaptPartner(paperrepro.Accounting, ops)
	if err != nil {
		t.Fatal(err)
	}
	ok, err := afsa.Consistent(acc.NewView, res.Automaton.View(paperrepro.Buyer))
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatalf("accounting still inconsistent after adaptation:\n%s", res.Automaton.DebugString())
	}

	// Commit and verify the whole choreography, including the
	// untouched logistics pair.
	if err := c.Commit(rep); err != nil {
		t.Fatal(err)
	}
	if err := c.CommitParty(newAcc); err != nil {
		t.Fatal(err)
	}
	check, err := c.Check()
	if err != nil {
		t.Fatal(err)
	}
	if !check.Consistent() {
		t.Fatalf("choreography broken after reverse propagation:\n%s", check)
	}
}

func lbl(s string) label.Label { return label.MustParse(s) }

// TestStarChoreographyEvolution runs the full evolution flow on a
// generated hub-and-spokes choreography: a variant change in one
// segment impacts exactly the partner of that segment.
func TestStarChoreographyEvolution(t *testing.T) {
	star, err := gen.GenerateStar(4, gen.DefaultStarParams())
	if err != nil {
		t.Fatal(err)
	}
	c := New(star.Registry)
	if err := c.AddParty(star.Hub); err != nil {
		t.Fatal(err)
	}
	for _, partner := range star.Partners {
		if err := c.AddParty(partner); err != nil {
			t.Fatal(err)
		}
	}
	check, err := c.Check()
	if err != nil {
		t.Fatal(err)
	}
	if !check.Consistent() {
		t.Fatalf("star inconsistent:\n%s", check)
	}

	// Delete the last partner's kickoff from the hub: a variant change
	// for that partner only (it waits for the kickoff forever).
	last := len(star.Partners) - 1
	kickoffPath, err := star.Hub.FindFirst(func(a bpel.Activity) bool {
		inv, ok := a.(*bpel.Invoke)
		return ok && inv.Partner == star.Partners[last].Owner && inv.BlockName == "kickoff"
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := c.Evolve(star.Hub.Owner, change.Delete{Path: kickoffPath})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.PublicChanged {
		t.Fatal("kickoff removal invisible")
	}
	affected := 0
	for _, im := range rep.Impacts {
		if !im.ViewChanged {
			continue
		}
		affected++
		if im.Partner != star.Partners[last].Owner {
			t.Fatalf("unexpected impact on %s", im.Partner)
		}
		if im.Classification.Scope != core.ScopeVariant {
			t.Fatalf("scope = %v, want variant", im.Classification.Scope)
		}
	}
	if affected != 1 {
		t.Fatalf("affected partners = %d, want 1", affected)
	}
}

// askLogistics is a buyer change that opens a conversation with a
// party the buyer never talked to: a synchronous status request to
// logistics right after the order.
func askLogistics() change.Operation {
	return change.Insert{
		Path:  bpel.Path{"Sequence:buyer process", "Invoke:order"},
		New:   &bpel.Invoke{BlockName: "ask L", Partner: paperrepro.Logistics, Op: "getStatusLOp", Sync: true},
		After: true,
	}
}

// TestEvolveReachesNewPartner pins the partner walk on a change that
// starts talking to a party: the buyer's current public process names
// only accounting, yet logistics must be classified, and the change is
// variant for it (committing it leaves B ↔ L inconsistent).
func TestEvolveReachesNewPartner(t *testing.T) {
	c := New(paperrepro.Registry())
	for _, p := range []*bpel.Process{paperrepro.BuyerProcess(), paperrepro.AccountingProcess(), paperrepro.LogisticsProcess()} {
		if err := c.AddParty(p); err != nil {
			t.Fatal(err)
		}
	}
	rep, err := c.Evolve(paperrepro.Buyer, askLogistics())
	if err != nil {
		t.Fatal(err)
	}
	var partners []string
	for _, im := range rep.Impacts {
		partners = append(partners, im.Partner)
	}
	if fmt.Sprint(partners) != "[A L]" {
		t.Fatalf("impacts on %v, want [A L]", partners)
	}
	im := rep.Impacts[1]
	if want := (core.Classification{Kind: core.KindBoth, Scope: core.ScopeVariant}); !im.ViewChanged || im.Classification != want {
		t.Fatalf("logistics: viewChanged=%v %v/%v, want additive+subtractive/variant",
			im.ViewChanged, im.Classification.Kind, im.Classification.Scope)
	}
	if !rep.NeedsPropagation() {
		t.Fatal("a variant impact on logistics does not need propagation")
	}
	if err := c.Commit(rep); err != nil {
		t.Fatal(err)
	}
	if ok, err := c.PairConsistent(paperrepro.Buyer, paperrepro.Logistics); err != nil || ok {
		t.Fatalf("B ↔ L after the commit: consistent=%v, %v; want inconsistent", ok, err)
	}
}
