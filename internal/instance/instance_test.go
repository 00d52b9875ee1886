package instance

import (
	"testing"

	"repro/internal/afsa"
	"repro/internal/formula"
	"repro/internal/label"
	"repro/internal/mapping"
	"repro/internal/paperrepro"
)

func word(labels ...string) []label.Label {
	out := make([]label.Label, len(labels))
	for i, s := range labels {
		out[i] = label.MustParse(s)
	}
	return out
}

// boundedBuyerPublic derives the buyer public process after the
// subtractive propagation (paper Fig. 18) — the realistic migration
// target for running buyer instances.
func boundedBuyerPublic(t *testing.T) *afsa.Automaton {
	t.Helper()
	res, err := mapping.Derive(paperrepro.Fig18BuyerProcess(), paperrepro.Registry())
	if err != nil {
		t.Fatal(err)
	}
	return res.Automaton
}

func TestCheckStatuses(t *testing.T) {
	reg := paperrepro.Registry()
	oldRes, err := mapping.Derive(paperrepro.BuyerProcess(), reg)
	if err != nil {
		t.Fatal(err)
	}
	newPublic := boundedBuyerPublic(t)

	// Fresh instance: migratable.
	st, err := Check(Instance{ID: "fresh"}, newPublic)
	if err != nil {
		t.Fatal(err)
	}
	if st != Migratable {
		t.Fatalf("fresh = %v", st)
	}

	// One round executed: still replayable on the bounded schema.
	oneRound := Instance{ID: "one", Trace: word(
		"B#A#orderOp", "A#B#deliveryOp", "B#A#getStatusOp", "A#B#statusOp")}
	st, err = Check(oneRound, newPublic)
	if err != nil {
		t.Fatal(err)
	}
	if st != Migratable {
		t.Fatalf("one round = %v, want migratable", st)
	}

	// Two rounds executed: not replayable on the bounded schema.
	twoRounds := Instance{ID: "two", Trace: word(
		"B#A#orderOp", "A#B#deliveryOp",
		"B#A#getStatusOp", "A#B#statusOp",
		"B#A#getStatusOp", "A#B#statusOp")}
	st, err = Check(twoRounds, newPublic)
	if err != nil {
		t.Fatal(err)
	}
	if st != NonReplayable {
		t.Fatalf("two rounds = %v, want non-replayable", st)
	}

	// Any old-schema instance migrates to the old schema itself.
	st, err = Check(oneRound, oldRes.Automaton)
	if err != nil {
		t.Fatal(err)
	}
	if st != Migratable {
		t.Fatalf("self-migration = %v", st)
	}
	for _, s := range []Status{Migratable, NonReplayable, Unviable, Status(9)} {
		if s.String() == "" {
			t.Fatal("empty status string")
		}
	}
}

// TestCheckUnviable exercises the third status: the trace replays but
// the reached state carries a mandatory annotation that can no longer
// be satisfied.
func TestCheckUnviable(t *testing.T) {
	a := afsa.New("partial")
	q0 := a.AddState()
	q1 := a.AddState() // reached by x; mandates y AND z, z missing
	q2 := a.AddState()
	q3 := a.AddState()
	a.SetStart(q0)
	a.SetFinal(q2, true)
	a.SetFinal(q3, true)
	a.AddTransition(q0, label.New("A", "B", "a"), q3)
	a.AddTransition(q0, label.New("A", "B", "x"), q1)
	a.AddTransition(q1, label.New("A", "B", "y"), q2)
	a.Annotate(q1, formula.And(formula.Var("A#B#y"), formula.Var("A#B#z")))

	if st, err := Check(Instance{ID: "fresh"}, a); err != nil || st != Migratable {
		t.Fatalf("fresh = %v, %v", st, err)
	}
	st, err := Check(Instance{ID: "x", Trace: word("A#B#x")}, a)
	if err != nil {
		t.Fatal(err)
	}
	if st != Unviable {
		t.Fatalf("trace into dead annotation = %v, want unviable", st)
	}
}

func TestCheckErrorOnNegativeAnnotation(t *testing.T) {
	a := afsa.New("neg")
	q := a.AddState()
	a.SetStart(q)
	a.SetFinal(q, true)
	a.Annotate(q, formula.Not(formula.Var("A#B#x")))
	if _, err := Check(Instance{ID: "i"}, a); err == nil {
		t.Fatal("negative annotation accepted")
	}
}

func TestMigrateReport(t *testing.T) {
	reg := paperrepro.Registry()
	oldRes, err := mapping.Derive(paperrepro.BuyerProcess(), reg)
	if err != nil {
		t.Fatal(err)
	}
	newPublic := boundedBuyerPublic(t)
	instances := SampleInstances(oldRes.Automaton, 11, 200, 10)
	if len(instances) != 200 {
		t.Fatalf("sampled %d instances", len(instances))
	}
	c, err := NewChecker(newPublic)
	if err != nil {
		t.Fatal(err)
	}
	rep := MigrateWith(instances, c)
	if rep.Total != 200 {
		t.Fatalf("total = %d", rep.Total)
	}
	if rep.Migratable == 0 {
		t.Fatal("no instance migratable — short traces must migrate")
	}
	if rep.NonReplayable == 0 {
		t.Fatal("no instance non-replayable — multi-round traces must block")
	}
	if rep.Migratable+rep.NonReplayable+rep.Unviable != rep.Total {
		t.Fatal("report does not add up")
	}
	if len(rep.Blocked) != rep.NonReplayable+rep.Unviable {
		t.Fatal("blocked list inconsistent")
	}
	f := rep.MigratableFraction()
	if f <= 0 || f >= 1 {
		t.Fatalf("migratable fraction = %v, want in (0,1)", f)
	}
	empty := &Report{}
	if empty.MigratableFraction() != 0 {
		t.Fatal("empty report fraction wrong")
	}
}

func TestSampleInstancesDeterministic(t *testing.T) {
	reg := paperrepro.Registry()
	oldRes, err := mapping.Derive(paperrepro.BuyerProcess(), reg)
	if err != nil {
		t.Fatal(err)
	}
	a := SampleInstances(oldRes.Automaton, 5, 20, 8)
	b := SampleInstances(oldRes.Automaton, 5, 20, 8)
	for i := range a {
		if len(a[i].Trace) != len(b[i].Trace) {
			t.Fatal("sampling not deterministic")
		}
	}
}

// TestInvariantChangeMigratesEverything: after the invariant order_2
// change nothing the partners ever did becomes illegal, so every
// running instance migrates (the instance-level counterpart of
// "no propagation necessary").
func TestInvariantChangeMigratesEverything(t *testing.T) {
	reg := paperrepro.Registry()
	oldRes, err := mapping.Derive(paperrepro.AccountingProcess(), reg)
	if err != nil {
		t.Fatal(err)
	}
	changed, err := paperrepro.OrderTwoChange().Apply(paperrepro.AccountingProcess())
	if err != nil {
		t.Fatal(err)
	}
	newRes, err := mapping.Derive(changed, reg)
	if err != nil {
		t.Fatal(err)
	}
	instances := SampleInstances(oldRes.Automaton, 3, 200, 10)
	c, err := NewChecker(newRes.Automaton)
	if err != nil {
		t.Fatal(err)
	}
	rep := MigrateWith(instances, c)
	if rep.Migratable != rep.Total {
		t.Fatalf("invariant change blocked %d instances", rep.Total-rep.Migratable)
	}
}
