package core

import (
	"fmt"
	"testing"

	"repro/internal/afsa"
	"repro/internal/bpel"
	"repro/internal/change"
	"repro/internal/formula"
	"repro/internal/label"
	"repro/internal/mapping"
)

func lbl(s string) label.Label { return label.MustParse(s) }

func chain(name string, labels ...string) *afsa.Automaton {
	a := afsa.New(name)
	cur := a.AddState()
	a.SetStart(cur)
	for _, l := range labels {
		next := a.AddState()
		a.AddTransition(cur, lbl(l), next)
		cur = next
	}
	a.SetFinal(cur, true)
	return a
}

// branching builds an automaton with the given words.
func branching(name string, words ...[]string) *afsa.Automaton {
	a := afsa.New(name)
	start := a.AddState()
	a.SetStart(start)
	for _, w := range words {
		cur := start
		for _, l := range w {
			next := a.AddState()
			a.AddTransition(cur, lbl(l), next)
			cur = next
		}
		a.SetFinal(cur, true)
	}
	return a.Minimize()
}

func TestClassifyChangeKinds(t *testing.T) {
	base := branching("base", []string{"A#B#x"})
	wider := branching("wider", []string{"A#B#x"}, []string{"A#B#y"})
	narrower := branching("narrower")
	_ = narrower
	other := branching("other", []string{"A#B#y"})

	tests := []struct {
		name     string
		old, new *afsa.Automaton
		want     ChangeKind
	}{
		{"neutral", base, base.Clone(), KindNeutral},
		{"additive", base, wider, KindAdditive},
		{"subtractive", wider, base, KindSubtractive},
		{"both", base, other, KindBoth},
	}
	for _, tt := range tests {
		if got := ClassifyChange(tt.old, tt.new); got != tt.want {
			t.Errorf("%s: ClassifyChange = %v, want %v", tt.name, got, tt.want)
		}
	}
}

func TestChangeKindPredicates(t *testing.T) {
	if !KindAdditive.Additive() || KindAdditive.Subtractive() {
		t.Fatal("KindAdditive predicates wrong")
	}
	if !KindBoth.Additive() || !KindBoth.Subtractive() {
		t.Fatal("KindBoth predicates wrong")
	}
	if KindNeutral.Additive() || KindNeutral.Subtractive() {
		t.Fatal("KindNeutral predicates wrong")
	}
	for _, k := range []ChangeKind{KindNeutral, KindAdditive, KindSubtractive, KindBoth} {
		if k.String() == "" {
			t.Fatal("empty kind string")
		}
	}
}

func TestClassifyScope(t *testing.T) {
	// Partner B requires x (mandatory); a new view without x is
	// variant, one with x invariant.
	partner := chain("partner", "A#B#x")
	partner.Annotate(partner.Start(), formula.Var("A#B#x"))

	viewWithX := branching("view", []string{"A#B#x"}, []string{"A#B#y"})
	scope, err := ClassifyScope(viewWithX, partner)
	if err != nil {
		t.Fatal(err)
	}
	if scope != ScopeInvariant {
		t.Fatalf("scope = %v, want invariant", scope)
	}

	viewWithoutX := branching("view2", []string{"A#B#y"})
	scope, err = ClassifyScope(viewWithoutX, partner)
	if err != nil {
		t.Fatal(err)
	}
	if scope != ScopeVariant {
		t.Fatalf("scope = %v, want variant", scope)
	}
	if ScopeInvariant.String() == "" || ScopeVariant.String() == "" {
		t.Fatal("empty scope strings")
	}
}

func TestClassifyBoth(t *testing.T) {
	oldView := branching("old", []string{"A#B#x"})
	newView := branching("new", []string{"A#B#x"}, []string{"A#B#y"})
	partner := branching("partner", []string{"A#B#x"})
	cl, err := Classify(oldView, newView, partner)
	if err != nil {
		t.Fatal(err)
	}
	if cl.Kind != KindAdditive || cl.Scope != ScopeInvariant {
		t.Fatalf("Classify = %+v", cl)
	}
}

func TestDetectAddedTransitions(t *testing.T) {
	oldB := branching("old", []string{"A#B#x", "A#B#z"})
	newB := branching("new", []string{"A#B#x", "A#B#z"}, []string{"A#B#x", "A#B#w"}, []string{"A#B#v"})
	hints, _ := detect(newB, oldB, true)
	if len(hints) != 2 {
		t.Fatalf("hints = %v, want 2", hints)
	}
	// v appears at the start state, w after x.
	foundV, foundW := false, false
	for _, h := range hints {
		if !h.Added {
			t.Fatalf("hint %v not marked added", h)
		}
		switch h.Label {
		case lbl("A#B#v"):
			foundV = true
			if h.State != oldB.Start() {
				t.Fatalf("v attributed to state %d, want start", h.State)
			}
		case lbl("A#B#w"):
			foundW = true
		}
	}
	if !foundV || !foundW {
		t.Fatalf("hints = %v", hints)
	}
}

func TestDetectRemovedTransitions(t *testing.T) {
	oldB := branching("old", []string{"A#B#x", "A#B#z"}, []string{"A#B#y"})
	newB := branching("new", []string{"A#B#x", "A#B#z"})
	hints, _ := detect(oldB, newB, false)
	if len(hints) != 1 {
		t.Fatalf("hints = %v, want 1", hints)
	}
	if hints[0].Added || hints[0].Label != lbl("A#B#y") {
		t.Fatalf("hint = %v", hints[0])
	}
	if hints[0].String() == "" {
		t.Fatal("empty hint string")
	}
}

func TestDetectNoDifference(t *testing.T) {
	a := branching("a", []string{"A#B#x"})
	if hints, _ := detect(a.Clone(), a, true); len(hints) != 0 {
		t.Fatalf("spurious hints: %v", hints)
	}
	if hints, _ := detect(a, a.Clone(), false); len(hints) != 0 {
		t.Fatalf("spurious hints: %v", hints)
	}
}

func TestLiftForeign(t *testing.T) {
	view := chain("view", "A#B#x")
	foreign := label.NewSet(lbl("A#L#f"))
	lifted := LiftForeign(view, foreign)
	// Foreign messages may interleave anywhere.
	if !lifted.Accepts([]label.Label{lbl("A#L#f"), lbl("A#B#x"), lbl("A#L#f")}) {
		t.Fatal("lift does not allow foreign interleaving")
	}
	// The projection constraint is kept.
	if lifted.Accepts([]label.Label{lbl("A#L#f")}) {
		t.Fatal("lift dropped the bilateral constraint")
	}
	// Original untouched.
	if view.Accepts([]label.Label{lbl("A#L#f"), lbl("A#B#x")}) {
		t.Fatal("LiftForeign mutated its input")
	}
}

// TestAnalyzeImpactDispatch pins how a variant change is planned per
// change kind: an additive change yields one additive plan, a change
// that adds and removes sequences two plans, and a neutral one (only
// an annotation changed) no plan and no error.
func TestAnalyzeImpactDispatch(t *testing.T) {
	private := &bpel.Process{Name: "b", Owner: "B", Body: &bpel.Receive{BlockName: "x", Partner: "A", Op: "x"}}
	res, err := mapping.Derive(private, nil)
	if err != nil {
		t.Fatal(err)
	}
	partner := NewParty(private, res)
	partnerView := func() *afsa.Automaton { return res.Automaton.View("A") }
	// mandatory makes A's choice between x and y internal: B has to
	// accept both.
	mandatory := func(a *afsa.Automaton) *afsa.Automaton {
		a.Annotate(a.Start(), formula.And(formula.Var("A#B#x"), formula.Var("A#B#y")))
		return a
	}
	x, y := []string{"A#B#x"}, []string{"A#B#y"}
	tests := []struct {
		name             string
		oldView, newView *afsa.Automaton
		kind             ChangeKind
		plans            []ChangeKind
	}{
		{"additive", branching("old", x), mandatory(branching("new", x, y)), KindAdditive, []ChangeKind{KindAdditive}},
		{"both", branching("old", x), branching("new", y), KindBoth, []ChangeKind{KindAdditive, KindSubtractive}},
		{"neutral", branching("old", x, y), mandatory(branching("new", x, y)), KindNeutral, nil},
	}
	for _, tc := range tests {
		im, err := AnalyzeImpact("A", tc.oldView, tc.newView, &partner, partnerView, nil)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if want := (Classification{Kind: tc.kind, Scope: ScopeVariant}); !im.ViewChanged || im.Classification != want {
			t.Fatalf("%s: viewChanged=%v classification %+v, want %+v", tc.name, im.ViewChanged, im.Classification, want)
		}
		var kinds []ChangeKind
		for _, p := range im.Plans {
			kinds = append(kinds, p.Kind)
		}
		if fmt.Sprint(kinds) != fmt.Sprint(tc.plans) {
			t.Fatalf("%s: plan kinds %v, want %v", tc.name, kinds, tc.plans)
		}
	}
}

func TestPlanAdditiveBasics(t *testing.T) {
	partnerB := branching("B", []string{"B#A#x"})
	newView := branching("view", []string{"B#A#x"}, []string{"B#A#y"})
	plan, err := PlanAdditive(newView, partnerB, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !plan.Diff.Accepts([]label.Label{lbl("B#A#y")}) {
		t.Fatalf("diff misses the added word:\n%s", plan.Diff.DebugString())
	}
	if plan.Diff.Accepts([]label.Label{lbl("B#A#x")}) {
		t.Fatal("diff contains an existing word")
	}
	for _, w := range [][]label.Label{{lbl("B#A#x")}, {lbl("B#A#y")}} {
		if !plan.NewPartnerPublic.Accepts(w) {
			t.Fatalf("B' misses %v", w)
		}
	}
	if len(plan.Hints) != 1 || plan.Hints[0].Label != lbl("B#A#y") {
		t.Fatalf("hints = %v", plan.Hints)
	}
	if _, ok := plan.Counterpart[partnerB.Start()]; !ok {
		t.Fatal("counterpart missing for start state")
	}
}

func TestPlanSubtractiveBasics(t *testing.T) {
	partnerB := branching("B", []string{"B#A#x"}, []string{"B#A#y"})
	newView := branching("view", []string{"B#A#x"})
	plan, err := PlanSubtractive(newView, partnerB, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !plan.Diff.Accepts([]label.Label{lbl("B#A#y")}) {
		t.Fatal("removed-sequence automaton misses the removed word")
	}
	if plan.NewPartnerPublic.Accepts([]label.Label{lbl("B#A#y")}) {
		t.Fatal("B' still accepts the removed word")
	}
	if !plan.NewPartnerPublic.Accepts([]label.Label{lbl("B#A#x")}) {
		t.Fatal("B' lost the surviving word")
	}
	if len(plan.Hints) != 1 || plan.Hints[0].Added {
		t.Fatalf("hints = %v", plan.Hints)
	}
}

// TestShiftClassification checks the claim accompanying the Shift
// operation: reordering parallel branches is neutral for the public
// process, reordering sequence steps is both additive and subtractive.
func TestShiftClassification(t *testing.T) {
	flowProc := &bpel.Process{Name: "p", Owner: "A", Body: &bpel.Flow{BlockName: "f", Branches: []bpel.Activity{
		&bpel.Invoke{BlockName: "ix", Partner: "B", Op: "x"},
		&bpel.Invoke{BlockName: "iy", Partner: "B", Op: "y"},
	}}}
	seqProc := &bpel.Process{Name: "p", Owner: "A", Body: &bpel.Sequence{BlockName: "s", Children: []bpel.Activity{
		&bpel.Invoke{BlockName: "ix", Partner: "B", Op: "x"},
		&bpel.Invoke{BlockName: "iy", Partner: "B", Op: "y"},
	}}}

	classify := func(p *bpel.Process, parentElem string) ChangeKind {
		t.Helper()
		before, err := mapping.Derive(p, nil)
		if err != nil {
			t.Fatal(err)
		}
		shifted, err := (change.Shift{
			Path:   bpel.Path{parentElem, "Invoke:ix"},
			Anchor: "Invoke:iy",
			After:  true,
		}).Apply(p)
		if err != nil {
			t.Fatal(err)
		}
		after, err := mapping.Derive(shifted, nil)
		if err != nil {
			t.Fatal(err)
		}
		return ClassifyChange(before.Automaton, after.Automaton)
	}

	if kind := classify(flowProc, "Flow:f"); kind != KindNeutral {
		t.Fatalf("flow shift = %v, want neutral", kind)
	}
	if kind := classify(seqProc, "Sequence:s"); kind != KindBoth {
		t.Fatalf("sequence shift = %v, want additive+subtractive", kind)
	}
}
