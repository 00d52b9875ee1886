package store

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/bpel"
	"repro/internal/change"
	"repro/internal/choreography"
	"repro/internal/core"
	"repro/internal/mapping"
	"repro/internal/paperrepro"
)

// evolveCase is one change transaction analyzed by both front ends of
// the paper's Fig. 4 loop: Store.Evolve and choreography.Evolve.
type evolveCase struct {
	name    string
	syncOps []string
	parties []*bpel.Process
	party   string
	ops     []change.Operation
}

// evolveCases returns the paper's three Accounting changes (Secs. 5.1–
// 5.3), a buyer change that starts talking to logistics, and every
// scripted episode of the scenario corpus.
func evolveCases(t *testing.T) []evolveCase {
	t.Helper()
	paper := []*bpel.Process{paperrepro.BuyerProcess(), paperrepro.AccountingProcess(), paperrepro.LogisticsProcess()}
	cases := []evolveCase{
		{"paper/order_2", paperSyncOps, paper, paperrepro.Accounting, []change.Operation{paperrepro.OrderTwoChange()}},
		{"paper/cancel", paperSyncOps, paper, paperrepro.Accounting, []change.Operation{paperrepro.CancelChange()}},
		{"paper/tracking-limit", paperSyncOps, paper, paperrepro.Accounting, []change.Operation{paperrepro.TrackingLimitChange()}},
		{"paper/ask-logistics", paperSyncOps, paper, paperrepro.Buyer, []change.Operation{askLogistics()}},
	}
	for _, sc := range corpusScenarios(t) {
		for _, ep := range sc.Episodes {
			ops, err := ep.Operations()
			if err != nil {
				t.Fatalf("%s/%s: %v", sc.Name, ep.Name, err)
			}
			cases = append(cases, evolveCase{sc.Name + "/" + ep.Name, sc.SyncOps, sc.Parties, ep.Party, ops})
		}
	}
	return cases
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

// TestEvolveReachesNewPartner pins the store's partner walk on a change
// that starts talking to a party: the buyer's current public process
// names only accounting, yet logistics must be classified, and the
// change is variant for it (committing it leaves B ↔ L inconsistent).
func TestEvolveReachesNewPartner(t *testing.T) {
	s, id := paperStore(t)
	evo, err := s.Evolve(ctx, id, paperrepro.Buyer, askLogistics())
	if err != nil {
		t.Fatal(err)
	}
	var partners []string
	for _, im := range evo.Impacts {
		partners = append(partners, im.Partner)
	}
	if fmt.Sprint(partners) != "[A L]" {
		t.Fatalf("impacts on %v, want [A L]", partners)
	}
	im := evo.Impacts[1]
	if want := (core.Classification{Kind: core.KindBoth, Scope: core.ScopeVariant}); !im.ViewChanged || im.Classification != want {
		t.Fatalf("logistics: viewChanged=%v %v/%v, want additive+subtractive/variant",
			im.ViewChanged, im.Classification.Kind, im.Classification.Scope)
	}
	if !evo.NeedsPropagation() {
		t.Fatal("a variant impact on logistics does not need propagation")
	}
	if evo.PartnerVersions[paperrepro.Logistics] != 1 {
		t.Fatalf("PartnerVersions = %v, want logistics at 1", evo.PartnerVersions)
	}
	if _, err := s.CommitEvolution(ctx, evo); err != nil {
		t.Fatal(err)
	}
	rep, err := s.Check(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range rep.Pairs {
		if p.A == paperrepro.Buyer && p.B == paperrepro.Logistics && !p.Consistent {
			return
		}
	}
	t.Fatalf("check after the commit: %+v, want B ↔ L inconsistent", rep.Pairs)
}

// impactDigest renders what both analyses must agree on for one
// partner: view change, classification, plan kinds and sizes, hints,
// regions and suggestions.
func impactDigest(partner string, viewChanged bool, cls core.Classification, plans []*core.Plan, suggestions []core.Suggestion) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s viewChanged=%v %s/%s", partner, viewChanged, cls.Kind, cls.Scope)
	for _, p := range plans {
		fmt.Fprintf(&b, "\n  plan %s diff=%d states B'=%d states", p.Kind, p.Diff.NumStates(), p.NewPartnerPublic.NumStates())
		for _, h := range p.Hints {
			fmt.Fprintf(&b, "\n    hint %s", h)
		}
		for _, r := range p.Regions {
			fmt.Fprintf(&b, "\n    region %s paths %v", r, r.Paths)
		}
	}
	for _, s := range suggestions {
		fmt.Fprintf(&b, "\n  suggest %s", s)
	}
	return b.String()
}

// TestEvolveMatchesChoreography runs every case through Store.Evolve
// and choreography.Evolve and requires the same analysis. Both run
// core.Evolve; what differs is what they hand it. The store serves
// memoized views of parties on the choreography's shared interner and
// re-infers the registry with the candidate; the choreography computes
// every view afresh on per-party interners and keeps the registry it
// was built on. That registry is the one the store infers for the
// candidate, since a fixed registry would reject operations the
// candidate introduces. The store must also look up exactly one
// memoized view per partner, plus the partner's view of the originator
// for every changed view.
func TestEvolveMatchesChoreography(t *testing.T) {
	for _, tc := range evolveCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			s := New(WithShards(4))
			if err := s.Create(ctx, "c", tc.syncOps); err != nil {
				t.Fatal(err)
			}
			var candidates []*bpel.Process
			for _, p := range tc.parties {
				if _, err := s.RegisterParty(ctx, "c", p); err != nil {
					t.Fatalf("RegisterParty(%s): %v", p.Owner, err)
				}
				if p.Owner == tc.party {
					for _, op := range tc.ops {
						next, err := op.Apply(p)
						if err != nil {
							t.Fatal(err)
						}
						p = next
					}
				}
				candidates = append(candidates, p)
			}

			before := s.Stats()
			evo, err := s.Evolve(ctx, "c", tc.party, tc.ops...)
			if err != nil {
				t.Fatalf("Store.Evolve: %v", err)
			}
			after := s.Stats()
			lookups := after.ViewHits + after.ViewMisses - before.ViewHits - before.ViewMisses
			wantLookups := uint64(0)
			for _, im := range evo.Impacts {
				wantLookups++
				if im.ViewChanged {
					wantLookups++
				}
			}
			if lookups != wantLookups {
				t.Errorf("view lookups = %d, want %d (impacts + changed impacts)", lookups, wantLookups)
			}

			reg, err := mapping.InferRegistry(candidates, tc.syncOps)
			if err != nil {
				t.Fatal(err)
			}
			c := choreography.New(reg)
			for _, p := range tc.parties {
				if err := c.AddParty(p); err != nil {
					t.Fatalf("AddParty(%s): %v", p.Owner, err)
				}
			}
			op := tc.ops[0]
			if len(tc.ops) > 1 {
				op = change.Composite{Ops: tc.ops}
			}
			rep, err := c.Evolve(tc.party, op)
			if err != nil {
				t.Fatalf("choreography.Evolve: %v", err)
			}

			if evo.PublicChanged != rep.PublicChanged {
				t.Fatalf("PublicChanged: store %v, choreography %v", evo.PublicChanged, rep.PublicChanged)
			}
			var got, want []string
			for _, im := range evo.Impacts {
				got = append(got, impactDigest(im.Partner, im.ViewChanged, im.Classification, im.Plans, im.Suggestions))
			}
			for _, im := range rep.Impacts {
				want = append(want, impactDigest(im.Partner, im.ViewChanged, im.Classification, im.Plans, im.Suggestions))
			}
			if g, w := strings.Join(got, "\n"), strings.Join(want, "\n"); g != w {
				t.Fatalf("impacts differ\nstore:\n%s\nchoreography:\n%s", g, w)
			}
		})
	}
}
