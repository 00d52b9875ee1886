package paperrepro

import (
	"testing"

	"repro/internal/afsa"
	"repro/internal/bpel"
	"repro/internal/change"
	"repro/internal/choreography"
	"repro/internal/core"
	"repro/internal/mapping"
)

// scenario builds the full three-party choreography of paper Fig. 1.
func scenario(t *testing.T) *choreography.Choreography {
	t.Helper()
	c := choreography.New(Registry())
	for _, p := range []*bpel.Process{BuyerProcess(), AccountingProcess(), LogisticsProcess()} {
		if err := c.AddParty(p); err != nil {
			t.Fatalf("AddParty(%s): %v", p.Name, err)
		}
	}
	rep, err := c.Check()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Consistent() {
		t.Fatalf("initial choreography inconsistent:\n%s", rep)
	}
	return c
}

func impactOn(t *testing.T, rep *choreography.EvolutionReport, partner string) core.PartnerImpact {
	t.Helper()
	for _, im := range rep.Impacts {
		if im.Partner == partner {
			return im
		}
	}
	t.Fatalf("no impact on %s in report", partner)
	return core.PartnerImpact{}
}

// TestFig10InvariantAdditive reproduces Sec. 5.1 / Figs. 9–10: adding
// the order_2 alternative changes the buyer view (Fig. 10a) but the
// intersection with the buyer public process stays non-empty
// (Fig. 10b) — an invariant additive change, no propagation.
func TestFig10InvariantAdditive(t *testing.T) {
	c := scenario(t)
	rep, err := c.Evolve(Accounting, OrderTwoChange())
	if err != nil {
		t.Fatal(err)
	}
	if !rep.PublicChanged {
		t.Fatal("order_2 change did not alter the public process")
	}
	buyer := impactOn(t, rep, Buyer)
	if !buyer.ViewChanged {
		t.Fatal("buyer view unchanged")
	}
	// Fig. 10a: the new buyer view.
	if diff := afsa.ExplainDifference(buyer.NewView, Fig10aBuyerViewAfterOrderTwo()); diff != "" {
		t.Fatalf("buyer view differs from Fig. 10a: %s", diff)
	}
	// Classification: additive (Def. 5) and invariant (Def. 6).
	if buyer.Classification.Kind != core.KindAdditive {
		t.Fatalf("kind = %v, want additive", buyer.Classification.Kind)
	}
	if buyer.Classification.Scope != core.ScopeInvariant {
		t.Fatalf("scope = %v, want invariant", buyer.Classification.Scope)
	}
	if rep.NeedsPropagation() {
		t.Fatal("invariant change flagged for propagation")
	}
	// The logistics view is untouched entirely.
	logistics := impactOn(t, rep, Logistics)
	if logistics.ViewChanged {
		t.Fatal("order_2 change leaked into the logistics view")
	}
	// Committing keeps the choreography consistent without touching
	// any partner.
	if err := c.Commit(rep); err != nil {
		t.Fatal(err)
	}
	check, err := c.Check()
	if err != nil {
		t.Fatal(err)
	}
	if !check.Consistent() {
		t.Fatalf("choreography inconsistent after invariant change:\n%s", check)
	}
}

// TestFig12VariantAdditive reproduces Sec. 5.2 / Figs. 11–12: the
// cancel option makes the buyer view inconsistent with the buyer
// public process — a variant additive change.
func TestFig12VariantAdditive(t *testing.T) {
	c := scenario(t)
	rep, err := c.Evolve(Accounting, CancelChange())
	if err != nil {
		t.Fatal(err)
	}
	buyer := impactOn(t, rep, Buyer)
	// Fig. 12a: the new buyer view with the projected mandatory
	// annotation cancelOp AND deliveryOp.
	if diff := afsa.ExplainDifference(buyer.NewView, Fig12aBuyerViewAfterCancel()); diff != "" {
		t.Fatalf("buyer view differs from Fig. 12a: %s", diff)
	}
	if buyer.Classification.Kind != core.KindAdditive {
		t.Fatalf("kind = %v, want additive", buyer.Classification.Kind)
	}
	if buyer.Classification.Scope != core.ScopeVariant {
		t.Fatalf("scope = %v, want variant", buyer.Classification.Scope)
	}
	// Fig. 12b: the intersection with the buyer public process is
	// annotated-empty.
	buyerParty, _ := c.Party(Buyer)
	inter := buyer.NewView.Intersect(buyerParty.Public)
	empty, err := inter.IsEmpty()
	if err != nil {
		t.Fatal(err)
	}
	if !empty {
		t.Fatalf("Fig. 12b intersection should be annotated-empty:\n%s", inter.DebugString())
	}
	if !rep.NeedsPropagation() {
		t.Fatal("variant change not flagged for propagation")
	}
}

// TestFig13AdditivePropagation reproduces Sec. 5.2 steps 1–2 /
// Fig. 13: the difference automaton A” = τ_B(A') \ B and the adapted
// buyer public process B' = A” ∪ B.
func TestFig13AdditivePropagation(t *testing.T) {
	c := scenario(t)
	rep, err := c.Evolve(Accounting, CancelChange())
	if err != nil {
		t.Fatal(err)
	}
	buyer := impactOn(t, rep, Buyer)
	if len(buyer.Plans) != 1 {
		t.Fatalf("plans = %d, want 1", len(buyer.Plans))
	}
	plan := buyer.Plans[0]
	if plan.Kind != core.KindAdditive {
		t.Fatalf("plan kind = %v", plan.Kind)
	}
	// Fig. 13a: the added sequence order·cancel.
	if diff := afsa.ExplainDifference(plan.Diff, Fig13aDifference()); diff != "" {
		t.Fatalf("difference automaton differs from Fig. 13a: %s", diff)
	}
	// Fig. 13b: the adapted buyer public process.
	if diff := afsa.ExplainDifference(plan.NewPartnerPublic, Fig13bNewBuyerPublic()); diff != "" {
		t.Fatalf("new buyer public differs from Fig. 13b: %s", diff)
	}
	// Step 3: the parallel traversal locates the change at the buyer
	// state after the order (paper: "state number 2 in the original
	// public process", i.e. state 1 here) with the cancel message.
	if len(plan.Hints) != 1 {
		t.Fatalf("hints = %v, want exactly one", plan.Hints)
	}
	h := plan.Hints[0]
	if h.State != 1 || string(h.Label) != "A#B#cancelOp" || !h.Added {
		t.Fatalf("hint = %v, want add A#B#cancelOp at state 1", h)
	}
	// The mapping table relates the state to the block "Sequence:buyer
	// process" (paper: "the change in the Buyer private process is
	// related to the block specified by the sequence activity labeled
	// 'buyer process'").
	if len(plan.Regions) != 1 {
		t.Fatalf("regions = %v", plan.Regions)
	}
	blocks := plan.Regions[0].Blocks
	if len(blocks) != 1 || blocks[0] != "Sequence:buyer process" {
		t.Fatalf("region blocks = %v, want [Sequence:buyer process]", blocks)
	}
}

// TestFig14SuggestionAndVerification reproduces Sec. 5.2 steps 3–5 /
// Fig. 14: the suggestion widens the buyer's delivery receive into a
// pick accepting delivery or cancel; applying it and re-deriving
// restores bilateral consistency.
func TestFig14SuggestionAndVerification(t *testing.T) {
	c := scenario(t)
	rep, err := c.Evolve(Accounting, CancelChange())
	if err != nil {
		t.Fatal(err)
	}
	buyer := impactOn(t, rep, Buyer)
	if len(buyer.Suggestions) == 0 {
		t.Fatal("no suggestions for the buyer adaptation")
	}
	ops := choreography.ExecutableSuggestions(buyer.Suggestions)
	if len(ops) != 1 {
		t.Fatalf("executable suggestions = %d, want 1 (%v)", len(ops), buyer.Suggestions)
	}
	widen, ok := ops[0].(change.Composite)
	var widenOp change.ReplaceReceiveWithPick
	if ok {
		t.Fatalf("unexpected composite suggestion: %v", widen)
	}
	widenOp, ok = ops[0].(change.ReplaceReceiveWithPick)
	if !ok {
		t.Fatalf("suggestion is %T, want ReplaceReceiveWithPick", ops[0])
	}
	wantPath := bpel.Path{"Sequence:buyer process", "Receive:delivery"}
	if !widenOp.Path.Equal(wantPath) {
		t.Fatalf("suggestion path = %v, want %v", widenOp.Path, wantPath)
	}
	if len(widenOp.Extra) != 1 || widenOp.Extra[0].Op != "cancelOp" || widenOp.Extra[0].Partner != Accounting {
		t.Fatalf("suggestion extra = %+v", widenOp.Extra)
	}

	// Steps 4–5: apply to the buyer, re-derive, verify consistency.
	newBuyer, res, err := c.AdaptPartner(Buyer, ops)
	if err != nil {
		t.Fatal(err)
	}
	// The re-derived buyer public must accept the cancel conversation.
	if !res.Automaton.Accepts(word("B#A#orderOp", "A#B#cancelOp")) {
		t.Fatalf("adapted buyer public rejects the cancel conversation:\n%s", res.Automaton.DebugString())
	}
	ok2, err := afsa.Consistent(buyer.NewView, res.Automaton.View(Accounting))
	if err != nil {
		t.Fatal(err)
	}
	if !ok2 {
		t.Fatalf("adapted buyer still inconsistent with accounting':\nview:\n%s\nbuyer':\n%s",
			buyer.NewView.DebugString(), res.Automaton.DebugString())
	}

	// The adaptation is behaviorally the paper's Fig. 14 process: both
	// derive to the same public automaton.
	fig14, err := mapping.Derive(Fig14BuyerProcess(), Registry())
	if err != nil {
		t.Fatal(err)
	}
	if diff := afsa.ExplainDifference(res.Automaton, fig14.Automaton); diff != "" {
		t.Fatalf("adapted buyer public differs from Fig. 14's: %s", diff)
	}

	// Commit everything; the full choreography is consistent again.
	if err := c.Commit(rep); err != nil {
		t.Fatal(err)
	}
	if err := c.CommitParty(newBuyer); err != nil {
		t.Fatal(err)
	}
	check, err := c.Check()
	if err != nil {
		t.Fatal(err)
	}
	if !check.Consistent() {
		t.Fatalf("choreography inconsistent after propagation:\n%s", check)
	}
}

// TestFig16VariantSubtractive reproduces Sec. 5.3 / Figs. 15–16:
// bounding parcel tracking to at most one round is a variant
// subtractive change for the buyer.
func TestFig16VariantSubtractive(t *testing.T) {
	c := scenario(t)
	rep, err := c.Evolve(Accounting, TrackingLimitChange())
	if err != nil {
		t.Fatal(err)
	}
	buyer := impactOn(t, rep, Buyer)
	// Fig. 16a: the new buyer view.
	if diff := afsa.ExplainDifference(buyer.NewView, Fig16aBuyerViewAfterTrackingLimit()); diff != "" {
		t.Fatalf("buyer view differs from Fig. 16a: %s", diff)
	}
	if buyer.Classification.Kind != core.KindSubtractive {
		t.Fatalf("kind = %v, want subtractive", buyer.Classification.Kind)
	}
	if buyer.Classification.Scope != core.ScopeVariant {
		t.Fatalf("scope = %v, want variant", buyer.Classification.Scope)
	}
	// Fig. 16b: the intersection with the buyer public process is
	// annotated-empty — the buyer's mandatory get_status alternative is
	// no longer supported after one round.
	buyerParty, _ := c.Party(Buyer)
	inter := buyer.NewView.Intersect(buyerParty.Public)
	empty, err := inter.IsEmpty()
	if err != nil {
		t.Fatal(err)
	}
	if !empty {
		t.Fatalf("Fig. 16b intersection should be annotated-empty:\n%s", inter.DebugString())
	}
}

// TestFig17SubtractivePropagation reproduces Sec. 5.3 steps 1–2 /
// Fig. 17: the removed sequences and the adapted buyer public process.
func TestFig17SubtractivePropagation(t *testing.T) {
	c := scenario(t)
	rep, err := c.Evolve(Accounting, TrackingLimitChange())
	if err != nil {
		t.Fatal(err)
	}
	buyer := impactOn(t, rep, Buyer)
	if len(buyer.Plans) != 1 {
		t.Fatalf("plans = %d, want 1", len(buyer.Plans))
	}
	plan := buyer.Plans[0]
	if plan.Kind != core.KindSubtractive {
		t.Fatalf("plan kind = %v", plan.Kind)
	}
	// The removed behavior: conversations with two or more tracking
	// rounds.
	twoRounds := word("B#A#orderOp", "A#B#deliveryOp",
		"B#A#getStatusOp", "A#B#statusOp",
		"B#A#getStatusOp", "A#B#statusOp",
		"B#A#terminateOp")
	oneRound := word("B#A#orderOp", "A#B#deliveryOp",
		"B#A#getStatusOp", "A#B#statusOp",
		"B#A#terminateOp")
	if !plan.Diff.Accepts(twoRounds) {
		t.Fatalf("removed-sequence automaton rejects a two-round conversation:\n%s", plan.Diff.DebugString())
	}
	if plan.Diff.Accepts(oneRound) {
		t.Fatal("removed-sequence automaton contains a still-supported conversation")
	}
	// Fig. 17b: the adapted buyer public process.
	if diff := afsa.ExplainDifference(plan.NewPartnerPublic, Fig17bNewBuyerPublic()); diff != "" {
		t.Fatalf("new buyer public differs from Fig. 17b: %s", diff)
	}
	// Step 3: the loop region is identified (paper: "the block
	// 'While:tracking' is the relevant one").
	foundWhile := false
	for _, r := range plan.Regions {
		for _, b := range r.Blocks {
			if b == "While:tracking" {
				foundWhile = true
			}
		}
	}
	if !foundWhile {
		t.Fatalf("While:tracking not identified in regions: %v", plan.Regions)
	}
}

// TestFig18SuggestionAndVerification reproduces Sec. 5.3 steps 3–5 /
// Fig. 18: the loop is replaced by its bounded unrolling; applying the
// suggestion and re-deriving restores consistency with the accounting
// side.
func TestFig18SuggestionAndVerification(t *testing.T) {
	c := scenario(t)
	rep, err := c.Evolve(Accounting, TrackingLimitChange())
	if err != nil {
		t.Fatal(err)
	}
	buyer := impactOn(t, rep, Buyer)
	ops := choreography.ExecutableSuggestions(buyer.Suggestions)
	if len(ops) != 1 {
		t.Fatalf("executable suggestions = %d, want 1 (%v)", len(ops), buyer.Suggestions)
	}
	repl, ok := ops[0].(change.Replace)
	if !ok {
		t.Fatalf("suggestion is %T, want Replace", ops[0])
	}
	wantPath := bpel.Path{"Sequence:buyer process", "While:tracking"}
	if !repl.Path.Equal(wantPath) {
		t.Fatalf("suggestion path = %v, want %v", repl.Path, wantPath)
	}
	// The replacement is an internal choice (switch), as in Fig. 18.
	if repl.New.Kind() != bpel.KindSwitch {
		t.Fatalf("replacement kind = %v, want Switch", repl.New.Kind())
	}

	newBuyer, res, err := c.AdaptPartner(Buyer, ops)
	if err != nil {
		t.Fatal(err)
	}
	// The adapted buyer supports at most one tracking round.
	if !res.Automaton.Accepts(word("B#A#orderOp", "A#B#deliveryOp", "B#A#getStatusOp", "A#B#statusOp", "B#A#terminateOp")) {
		t.Fatalf("one tracking round lost:\n%s", res.Automaton.DebugString())
	}
	if !res.Automaton.Accepts(word("B#A#orderOp", "A#B#deliveryOp", "B#A#terminateOp")) {
		t.Fatalf("direct termination lost:\n%s", res.Automaton.DebugString())
	}
	if res.Automaton.Accepts(word("B#A#orderOp", "A#B#deliveryOp",
		"B#A#getStatusOp", "A#B#statusOp", "B#A#getStatusOp", "A#B#statusOp", "B#A#terminateOp")) {
		t.Fatal("two tracking rounds still accepted")
	}
	ok2, err := afsa.Consistent(buyer.NewView, res.Automaton.View(Accounting))
	if err != nil {
		t.Fatal(err)
	}
	if !ok2 {
		t.Fatalf("adapted buyer still inconsistent:\nview:\n%s\nbuyer':\n%s",
			buyer.NewView.DebugString(), res.Automaton.DebugString())
	}

	// The adaptation is behaviorally the paper's Fig. 18 process: both
	// derive to the same public automaton.
	fig18, err := mapping.Derive(Fig18BuyerProcess(), Registry())
	if err != nil {
		t.Fatal(err)
	}
	if diff := afsa.ExplainDifference(res.Automaton, fig18.Automaton); diff != "" {
		t.Fatalf("adapted buyer public differs from Fig. 18's: %s", diff)
	}

	// The paper closes: "the propagation with the logistics has to be
	// performed in a similar way." Under Def. 6 with our logistics
	// model the formal criterion actually reports *invariant*: the
	// logistics tracking loop is a pick (external choice, the
	// accounting decides), so bounding the rounds never violates a
	// logistics-mandatory alternative — logistics merely keeps an
	// unexercised capability, which is deadlock-free. The subtractive
	// view change is detected (Def. 5) but needs no propagation. This
	// nuance is recorded in EXPERIMENTS.md.
	logistics := impactOn(t, rep, Logistics)
	if !logistics.ViewChanged {
		t.Fatal("logistics view should have changed")
	}
	if logistics.Classification.Kind != core.KindSubtractive {
		t.Fatalf("logistics kind = %v, want subtractive", logistics.Classification.Kind)
	}
	if logistics.Classification.Scope != core.ScopeInvariant {
		t.Fatalf("logistics scope = %v, want invariant (pick-based loop)", logistics.Classification.Scope)
	}

	if err := c.Commit(rep); err != nil {
		t.Fatal(err)
	}
	if err := c.CommitParty(newBuyer); err != nil {
		t.Fatal(err)
	}
	check, err := c.Check()
	if err != nil {
		t.Fatal(err)
	}
	if !check.Consistent() {
		t.Fatalf("choreography inconsistent after subtractive propagation:\n%s", check)
	}
}
