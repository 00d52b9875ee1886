package decentral

import (
	"fmt"
	"testing"

	"repro/internal/afsa"
	"repro/internal/bpel"
	"repro/internal/gen"
	"repro/internal/mapping"
	"repro/internal/paperrepro"
)

func paperNodes(t *testing.T) []Node {
	t.Helper()
	reg := paperrepro.Registry()
	buyer, err := mapping.Derive(paperrepro.BuyerProcess(), reg)
	if err != nil {
		t.Fatal(err)
	}
	acc, err := mapping.Derive(paperrepro.AccountingProcess(), reg)
	if err != nil {
		t.Fatal(err)
	}
	logistics, err := mapping.Derive(paperrepro.LogisticsProcess(), reg)
	if err != nil {
		t.Fatal(err)
	}
	return []Node{
		{Party: paperrepro.Buyer, Public: buyer.Automaton},
		{Party: paperrepro.Accounting, Public: acc.Automaton},
		{Party: paperrepro.Logistics, Public: logistics.Automaton},
	}
}

func TestEstablishValidation(t *testing.T) {
	if _, err := Establish(nil); err == nil {
		t.Fatal("empty node set accepted")
	}
	a := afsa.New("a")
	a.AddState()
	if _, err := Establish([]Node{{Party: "A", Public: a}, {Party: "A", Public: a}}); err == nil {
		t.Fatal("duplicate node accepted")
	}
	if _, err := Establish([]Node{{Party: "A", Public: a}, {Party: "B"}}); err == nil {
		t.Fatal("node without automaton accepted")
	}
}

func TestEstablishPaperScenario(t *testing.T) {
	out, err := Establish(paperNodes(t))
	if err != nil {
		t.Fatal(err)
	}
	if !out.Consistent {
		t.Fatalf("paper scenario reported inconsistent: %+v", out.Verdicts)
	}
	// Two interacting pairs (B↔A, A↔L); buyer and logistics never talk.
	if len(out.Verdicts) != 2 {
		t.Fatalf("verdicts = %v, want 2 pairs", out.Verdicts)
	}
	// 3 messages per pair (2 view exchanges + 1 verdict).
	if out.Messages != 6 {
		t.Fatalf("messages = %d, want 6", out.Messages)
	}
	if out.Rounds != 2 {
		t.Fatalf("rounds = %d", out.Rounds)
	}
	if out.LocalStates == 0 {
		t.Fatal("no local work recorded")
	}
}

// TestEstablishGeneratedPairs runs the protocol on one to four
// disjoint generated conversations at once. Each pair is consistent by
// construction, so the whole system must be, with one verdict per pair.
func TestEstablishGeneratedPairs(t *testing.T) {
	var nodes []Node
	for i := 0; i < 4; i++ {
		conv := gen.MustGenerate(int64(i)+500, gen.Params{
			PartyA: fmt.Sprintf("P%da", i), PartyB: fmt.Sprintf("P%db", i),
			Messages: 6, MaxDepth: 2, ChoiceProb: 25, MaxBranch: 2,
		})
		for _, p := range []*bpel.Process{conv.A, conv.B} {
			res, err := mapping.Derive(p, conv.Registry)
			if err != nil {
				t.Fatalf("pair %d: derive %s: %v", i, p.Owner, err)
			}
			nodes = append(nodes, Node{Party: p.Owner, Public: res.Automaton})
		}
		out, err := Establish(nodes)
		if err != nil {
			t.Fatalf("%d pairs: %v", i+1, err)
		}
		if !out.Consistent || len(out.Verdicts) != i+1 {
			t.Fatalf("%d generated pairs: consistent=%v, verdicts %+v", i+1, out.Consistent, out.Verdicts)
		}
	}
}

func TestEstablishDetectsInconsistency(t *testing.T) {
	nodes := paperNodes(t)
	// Break accounting: commit the cancel change without propagation.
	changed, err := paperrepro.CancelChange().Apply(paperrepro.AccountingProcess())
	if err != nil {
		t.Fatal(err)
	}
	res, err := mapping.Derive(changed, paperrepro.Registry())
	if err != nil {
		t.Fatal(err)
	}
	for i := range nodes {
		if nodes[i].Party == paperrepro.Accounting {
			nodes[i].Public = res.Automaton
		}
	}
	out, err := Establish(nodes)
	if err != nil {
		t.Fatal(err)
	}
	if out.Consistent {
		t.Fatal("broken choreography reported consistent")
	}
	// Exactly the buyer↔accounting pair fails.
	bad := 0
	for _, v := range out.Verdicts {
		if !v.Consistent {
			bad++
			if v.A != paperrepro.Accounting && v.B != paperrepro.Accounting {
				t.Fatalf("wrong failing pair: %+v", v)
			}
		}
	}
	if bad != 1 {
		t.Fatalf("failing pairs = %d, want 1", bad)
	}
}

func TestPropagationRun(t *testing.T) {
	nodes := paperNodes(t)
	changed, err := paperrepro.CancelChange().Apply(paperrepro.AccountingProcess())
	if err != nil {
		t.Fatal(err)
	}
	res, err := mapping.Derive(changed, paperrepro.Registry())
	if err != nil {
		t.Fatal(err)
	}
	var partners []Node
	for _, n := range nodes {
		if n.Party != paperrepro.Accounting {
			partners = append(partners, n)
		}
	}
	newViews := map[string]*afsa.Automaton{
		paperrepro.Buyer:     res.Automaton.View(paperrepro.Buyer),
		paperrepro.Logistics: res.Automaton.View(paperrepro.Logistics),
	}
	messages, adaptations, err := PropagationRun(paperrepro.Accounting, newViews, partners)
	if err != nil {
		t.Fatal(err)
	}
	if messages != 4 {
		t.Fatalf("messages = %d, want 4 (2 partners × request+verdict)", messages)
	}
	// Only the buyer must adapt (cancel is invisible to logistics).
	if adaptations != 1 {
		t.Fatalf("adaptations = %d, want 1", adaptations)
	}
}
