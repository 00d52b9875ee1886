// Command figures regenerates every constructed table and figure of
// the paper and prints them in textual form — the human-readable
// companion of the reproduction tests in internal/paperrepro and the
// benchmarks in bench_test.go. With -dot the automata are emitted as
// Graphviz dot.
package main

import (
	"flag"
	"fmt"
	"log"

	choreo "repro"
)

var dot = flag.Bool("dot", false, "emit automata as Graphviz dot")

func show(title string, a *choreo.Automaton) {
	fmt.Printf("──── %s ────\n", title)
	if *dot {
		fmt.Print(a.DOT())
	} else {
		fmt.Print(a.DebugString())
	}
	fmt.Println()
}

func main() {
	flag.Parse()
	reg := choreo.PaperRegistry()

	buyer, err := choreo.DerivePublic(choreo.PaperBuyer(), reg)
	if err != nil {
		log.Fatal(err)
	}
	acc, err := choreo.DerivePublic(choreo.PaperAccounting(), reg)
	if err != nil {
		log.Fatal(err)
	}

	// Fig. 5 — the aFSA worked example.
	a5, b5 := choreo.Fig5PartyA(), choreo.Fig5PartyB()
	show("Fig. 5 party A", a5)
	show("Fig. 5 party B", b5)
	inter := a5.Intersect(b5)
	show("Fig. 5 intersection of A and B", inter)
	empty, err := inter.IsEmpty()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Fig. 5 intersection annotated-empty: %v (paper: empty)\n\n", empty)

	// Fig. 6 + Table 1.
	show("Fig. 6 buyer public process", buyer.Automaton)
	fmt.Println("──── Table 1 buyer mapping table ────")
	fmt.Print(buyer.Table)
	fmt.Println()

	// Fig. 7, Fig. 8.
	show("Fig. 7 accounting public process", acc.Automaton)
	show("Fig. 8a buyer view of accounting", acc.Automaton.View("B"))
	show("Fig. 8b logistics view of accounting", acc.Automaton.View("L"))

	// Sec. 5.1 / Fig. 10 — invariant additive change.
	c, err := choreo.PaperScenario()
	if err != nil {
		log.Fatal(err)
	}
	rep, err := c.Evolve("A", choreo.PaperOrderTwoChange())
	if err != nil {
		log.Fatal(err)
	}
	im := impactOn(rep, "B")
	show("Fig. 10a buyer view after order_2 change", im.NewView)
	fmt.Printf("Fig. 10 classification: %s, %s (paper: additive, invariant)\n\n",
		im.Classification.Kind, im.Classification.Scope)

	// Sec. 5.2 / Figs. 11–14 — variant additive change.
	rep, err = c.Evolve("A", choreo.PaperCancelChange())
	if err != nil {
		log.Fatal(err)
	}
	im = impactOn(rep, "B")
	show("Fig. 12a buyer view after cancel change", im.NewView)
	buyerParty, _ := c.Party("B")
	inter12 := im.NewView.Intersect(buyerParty.Public)
	empty, err = inter12.IsEmpty()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Fig. 12b intersection annotated-empty: %v (paper: empty → variant)\n\n", empty)
	plan := im.Plans[0]
	show("Fig. 13a difference τ_B(A') \\ B", plan.Diff)
	show("Fig. 13b new buyer public B' = A'' ∪ B", plan.NewPartnerPublic)
	fmt.Println("──── Fig. 14 suggested buyer adaptation ────")
	for _, s := range im.Suggestions {
		fmt.Println(" ", s)
	}
	ops := choreo.ExecutableSuggestions(im.Suggestions)
	newBuyer, _, err := c.AdaptPartner("B", ops)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println()
	fmt.Print(newBuyer)
	fmt.Println()

	// Sec. 5.3 / Figs. 15–18 — variant subtractive change.
	rep, err = c.Evolve("A", choreo.PaperTrackingLimitChange())
	if err != nil {
		log.Fatal(err)
	}
	im = impactOn(rep, "B")
	show("Fig. 16a buyer view after tracking-limit change", im.NewView)
	inter16 := im.NewView.Intersect(buyerParty.Public)
	empty, err = inter16.IsEmpty()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Fig. 16b intersection annotated-empty: %v (paper: empty → variant)\n\n", empty)
	plan = im.Plans[0]
	show("Fig. 17a removed sequences B \\ τ_B(A')", plan.Diff)
	show("Fig. 17b new buyer public B' = B \\ removed", plan.NewPartnerPublic)
	fmt.Println("──── Fig. 18 suggested buyer adaptation ────")
	for _, s := range im.Suggestions {
		fmt.Println(" ", s)
	}
	newBuyer, _, err = c.AdaptPartner("B", choreo.ExecutableSuggestions(im.Suggestions))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println()
	fmt.Print(newBuyer)
}

func impactOn(rep *choreo.EvolutionReport, partner string) *choreo.PartnerImpact {
	im, ok := rep.Impact(partner)
	if !ok {
		log.Fatalf("no impact on %s", partner)
	}
	return im
}
