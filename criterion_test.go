package choreo

import (
	"fmt"
	"testing"

	"repro/internal/afsa"
	"repro/internal/gen"
	"repro/internal/mapping"
	"repro/internal/runtime"
)

// TestBilateralVsGlobal is experiment D-7 (criterion ablation): on
// generated two-party choreographies — both intact and mutated — the
// paper's bilateral consistency criterion is compared against global
// deadlock-freedom established by exhaustive execution.
//
// The criterion is *sound*: whenever it reports consistency, execution
// is deadlock-free — any violation fails the test. It is also
// *conservative*: an internal choice whose branch begins with a
// receive makes the partner's support of that receive mandatory even
// though an angelic scheduler (which resolves internal choices only at
// send time) never walks into the trap. Such cases are counted, not
// failed; the test logs the measured conservatism rate.
func TestBilateralVsGlobal(t *testing.T) {
	consistent, inconsistentConfirmed, conservative := 0, 0, 0
	for seed := int64(0); seed < 40; seed++ {
		conv := gen.MustGenerate(seed, gen.DefaultParams())
		ra, err := mapping.Derive(conv.A, conv.Registry)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		// Half of the runs mutate party A without propagation.
		procA := conv.A
		if seed%2 == 1 {
			op, err := gen.RandomChange(seed*7, conv.A, conv.Registry)
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			mutated, err := op.Apply(conv.A)
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			procA = mutated
			ra, err = mapping.Derive(procA, conv.Registry)
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
		}
		rb, err := mapping.Derive(conv.B, conv.Registry)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}

		ok, err := afsa.Consistent(ra.Automaton.View("B"), rb.Automaton.View("A"))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}

		sys, err := runtime.NewSystem(map[string]*afsa.Automaton{
			"A": ra.Automaton, "B": rb.Automaton,
		})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		res := sys.Explore(1 << 18)
		deadlockFree := res.DeadlockFree() && !res.Truncated

		switch {
		case ok && !deadlockFree:
			// Soundness violation: the paper's central claim broken.
			t.Fatalf("seed %d: bilaterally consistent but execution fails: %v", seed, res.Failures)
		case ok:
			consistent++
		case !deadlockFree:
			inconsistentConfirmed++
		default:
			conservative++
		}
	}
	if consistent == 0 || inconsistentConfirmed == 0 {
		t.Fatalf("workload not discriminating: consistent=%d confirmed-inconsistent=%d",
			consistent, inconsistentConfirmed)
	}
	t.Logf("D-7: consistent=%d, inconsistent confirmed by execution=%d, conservative flags=%d",
		consistent, inconsistentConfirmed, conservative)
}

// TestControlledEvolutionPreventsDeadlock is experiment D-4 as a
// correctness statement: committing a variant change without
// propagation makes execution fail; following the framework's
// propagation keeps every seed deadlock-free.
func TestControlledEvolutionPreventsDeadlock(t *testing.T) {
	for _, scenario := range []struct {
		name string
		op   ChangeOperation
	}{
		{"cancel (Sec. 5.2)", PaperCancelChange()},
		{"tracking limit (Sec. 5.3)", PaperTrackingLimitChange()},
	} {
		c, err := PaperScenario()
		if err != nil {
			t.Fatal(err)
		}
		rep, err := c.Evolve("A", scenario.op)
		if err != nil {
			t.Fatalf("%s: %v", scenario.name, err)
		}

		// Uncontrolled: commit without propagation.
		uncontrolled := map[string]*Automaton{"A": rep.NewPublic}
		for _, name := range []string{"B", "L"} {
			p, _ := c.Party(name)
			uncontrolled[name] = p.Public
		}
		sys, err := NewSystem(uncontrolled)
		if err != nil {
			t.Fatal(err)
		}
		if res := sys.Explore(0); res.DeadlockFree() {
			t.Fatalf("%s: uncontrolled evolution did not fail", scenario.name)
		}

		// Controlled: apply the suggested buyer adaptation first.
		var im PartnerImpact
		for _, i := range rep.Impacts {
			if i.Partner == "B" {
				im = i
			}
		}
		_, res, err := c.AdaptPartner("B", ExecutableSuggestions(im.Suggestions))
		if err != nil {
			t.Fatalf("%s: %v", scenario.name, err)
		}
		controlled := map[string]*Automaton{"A": rep.NewPublic, "B": res.Automaton}
		p, _ := c.Party("L")
		controlled["L"] = p.Public
		sys, err = NewSystem(controlled)
		if err != nil {
			t.Fatal(err)
		}
		if exec := sys.Explore(0); !exec.DeadlockFree() {
			t.Fatalf("%s: controlled evolution still fails: %v", scenario.name, exec.Failures)
		}
	}
}

// TestPublicAPISurface exercises the quick-start shown in the package
// documentation.
func TestPublicAPISurface(t *testing.T) {
	reg := NewRegistry()
	if err := reg.AddOperation("A", "pingOp", false); err != nil {
		t.Fatal(err)
	}
	if err := reg.AddOperation("B", "pongOp", false); err != nil {
		t.Fatal(err)
	}
	server := &Process{Name: "server", Owner: "A",
		Body: &Sequence{BlockName: "srv", Children: []Activity{
			&Receive{BlockName: "ping", Partner: "B", Op: "pingOp"},
			&Invoke{BlockName: "pong", Partner: "B", Op: "pongOp"},
		}}}
	client := &Process{Name: "client", Owner: "B",
		Body: &Sequence{BlockName: "cli", Children: []Activity{
			&Invoke{BlockName: "ping", Partner: "A", Op: "pingOp"},
			&Receive{BlockName: "pong", Partner: "A", Op: "pongOp"},
		}}}
	c := NewChoreography(reg)
	if err := c.AddParty(server); err != nil {
		t.Fatal(err)
	}
	if err := c.AddParty(client); err != nil {
		t.Fatal(err)
	}
	report, err := c.Check()
	if err != nil || !report.Consistent() {
		t.Fatalf("check: %v", err)
	}
	evo, err := c.Evolve("A", Delete{Path: Path{"Sequence:srv", "Invoke:pong"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(evo.Impacts) != 1 || evo.Impacts[0].Classification.Scope != ScopeVariant {
		t.Fatalf("impacts = %+v", evo.Impacts)
	}
	if !evo.Impacts[0].Classification.Kind.Subtractive() {
		t.Fatalf("kind = %v", evo.Impacts[0].Classification.Kind)
	}

	// XML round trip through the public API.
	data, err := MarshalProcessXML(server)
	if err != nil {
		t.Fatal(err)
	}
	back, err := UnmarshalProcessXML(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.Name != "server" {
		t.Fatal("XML round trip lost the name")
	}

	// Formula/label helpers.
	l := NewLabel("A", "B", "x")
	if l.Sender() != "A" {
		t.Fatal("label helper broken")
	}
	f, err := ParseFormula("A#B#x AND A#B#y")
	if err != nil || f.IsTrue() {
		t.Fatal("formula helper broken")
	}
	if _, err := ParseLabel("garbage#"); err == nil {
		t.Fatal("ParseLabel accepted garbage")
	}
	if fmt.Sprint(Epsilon) != "ε" {
		t.Fatal("epsilon rendering broken")
	}
}
