// Benchmarks regenerating every constructed table and figure of the
// paper: each one times a construction and fails unless the result is
// the paper's. Absolute numbers depend on the host. The end-to-end
// benchmark of the service is choreobench (choreobench/README.md).
package choreo

import (
	"context"
	"testing"

	"repro/internal/bpel"
	"repro/internal/mapping"
	"repro/internal/paperrepro"
	"repro/internal/store"
)

// ---- Fig. 5: intersection + annotated emptiness ----

func BenchmarkFig5Intersection(b *testing.B) {
	pa, pb := paperrepro.Fig5PartyA(), paperrepro.Fig5PartyB()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		inter := pa.Intersect(pb)
		empty, err := inter.IsEmpty()
		if err != nil || !empty {
			b.Fatalf("fig5: empty=%v err=%v", empty, err)
		}
	}
}

// ---- Fig. 6 / Table 1: buyer public process generation + mapping table ----

func BenchmarkFig6BuyerPublic(b *testing.B) {
	reg := paperrepro.Registry()
	p := paperrepro.BuyerProcess()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := mapping.Derive(p, reg)
		if err != nil || res.Automaton.NumStates() != 5 {
			b.Fatalf("fig6: %v", err)
		}
	}
}

func BenchmarkTable1Mapping(b *testing.B) {
	reg := paperrepro.Registry()
	p := paperrepro.BuyerProcess()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := mapping.Derive(p, reg)
		if err != nil {
			b.Fatal(err)
		}
		if got := res.Table.Blocks(2); len(got) != 5 {
			b.Fatalf("table1 row 3 = %v", got)
		}
	}
}

// ---- Figs. 2/7: accounting public process ----

func BenchmarkFig7AccountingPublic(b *testing.B) {
	reg := paperrepro.Registry()
	p := paperrepro.AccountingProcess()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := mapping.Derive(p, reg); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- Fig. 8: bilateral views ----

func BenchmarkFig8Views(b *testing.B) {
	reg := paperrepro.Registry()
	res, err := mapping.Derive(paperrepro.AccountingProcess(), reg)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if v := res.Automaton.View(paperrepro.Buyer); v.NumStates() != 5 {
			b.Fatalf("fig8a states = %d", v.NumStates())
		}
		if v := res.Automaton.View(paperrepro.Logistics); v.NumStates() != 5 {
			b.Fatalf("fig8b states = %d", v.NumStates())
		}
	}
}

// ---- Fig. 1: whole-scenario consistency ----

func paperScenario(b *testing.B) *Choreography {
	b.Helper()
	c, err := PaperScenario()
	if err != nil {
		b.Fatal(err)
	}
	return c
}

func BenchmarkScenarioConsistency(b *testing.B) {
	c := paperScenario(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := c.Check()
		if err != nil || !rep.Consistent() {
			b.Fatalf("scenario: %v", err)
		}
	}
}

// ---- Sec. 5: the evolution figures ----

// benchEvolve times the analysis of op on accounting and fails unless
// it decides propagation as the paper does.
func benchEvolve(b *testing.B, op ChangeOperation, propagate bool) {
	c := paperScenario(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := c.Evolve(paperrepro.Accounting, op)
		if err != nil || rep.NeedsPropagation() != propagate {
			b.Fatalf("evolve: err=%v, want propagation %v", err, propagate)
		}
	}
}

// buyerImpact evolves accounting by op and returns the scenario and
// the change's impact on the buyer.
func buyerImpact(b *testing.B, op ChangeOperation) (*Choreography, PartnerImpact) {
	b.Helper()
	c := paperScenario(b)
	rep, err := c.Evolve(paperrepro.Accounting, op)
	if err != nil {
		b.Fatal(err)
	}
	for _, im := range rep.Impacts {
		if im.Partner == paperrepro.Buyer {
			return c, im
		}
	}
	b.Fatal("no impact on the buyer")
	return nil, PartnerImpact{}
}

// benchSuggestApply times applying the buyer's executable suggestions
// for op and fails unless the adapted buyer is consistent with the
// changed accounting.
func benchSuggestApply(b *testing.B, op ChangeOperation) {
	c, im := buyerImpact(b, op)
	ops := ExecutableSuggestions(im.Suggestions)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, res, err := c.AdaptPartner(paperrepro.Buyer, ops)
		if err != nil {
			b.Fatal(err)
		}
		ok, err := Consistent(im.NewView, res.Automaton.View(paperrepro.Accounting))
		if err != nil || !ok {
			b.Fatalf("adapted buyer inconsistent: %v", err)
		}
	}
}

// ---- Fig. 10: invariant additive change ----

func BenchmarkFig10InvariantAdditive(b *testing.B) {
	benchEvolve(b, PaperOrderTwoChange(), false)
}

// ---- Figs. 12/13: variant additive change + propagation ----

func BenchmarkFig12VariantAdditive(b *testing.B) {
	benchEvolve(b, PaperCancelChange(), true)
}

func BenchmarkFig13AdditivePropagation(b *testing.B) {
	c, im := buyerImpact(b, PaperCancelChange())
	buyer, _ := c.Party(paperrepro.Buyer)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		plan, err := PlanAdditive(im.NewView, buyer.Public, buyer.Table)
		if err != nil || len(plan.Hints) != 1 {
			b.Fatalf("fig13: %v", err)
		}
	}
}

// ---- Fig. 14: suggestion + application + verification ----

func BenchmarkFig14SuggestApply(b *testing.B) {
	benchSuggestApply(b, PaperCancelChange())
}

// ---- Figs. 16/17: variant subtractive change + propagation ----

func BenchmarkFig16VariantSubtractive(b *testing.B) {
	benchEvolve(b, PaperTrackingLimitChange(), true)
}

func BenchmarkFig17SubtractivePropagation(b *testing.B) {
	c, im := buyerImpact(b, PaperTrackingLimitChange())
	buyer, _ := c.Party(paperrepro.Buyer)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		plan, err := PlanSubtractive(im.NewView, buyer.Public, buyer.Table)
		if err != nil || len(plan.Hints) == 0 {
			b.Fatalf("fig17: %v", err)
		}
	}
}

// ---- Fig. 18: subtractive suggestion + application + verification ----

func BenchmarkFig18SuggestApply(b *testing.B) {
	benchSuggestApply(b, PaperTrackingLimitChange())
}

// ---- journal overhead on the commit path ----

// benchCommitLoop registers the paper scenario into st and then
// times repeated UpdateParty commits of the accounting process — the
// full commit path (registry inference, public derivation, snapshot
// publication) with whatever durability st was built with.
func benchCommitLoop(b *testing.B, st *store.Store) {
	b.Helper()
	const id = "procurement"
	ctx := context.Background()
	if err := st.Create(ctx, id, []string{"L.getStatusLOp"}); err != nil {
		b.Fatal(err)
	}
	if _, err := st.PutParties(ctx, id, []*bpel.Process{
		paperrepro.BuyerProcess(), paperrepro.AccountingProcess(), paperrepro.LogisticsProcess(),
	}, nil); err != nil {
		b.Fatal(err)
	}
	acct := paperrepro.AccountingProcess()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := st.UpdateParty(ctx, id, acct, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkScenarioCommitJournal measures what the write-ahead
// journal adds to the ScenarioConsistency commit path: the same
// UpdateParty loop against an in-memory store, a journaled store, and
// a journaled store with per-append fsync. The mem/wal delta is the
// append overhead; wal/wal-fsync is what -fsync costs
// (docs/persistence.md).
func BenchmarkScenarioCommitJournal(b *testing.B) {
	b.Run("mem", func(b *testing.B) {
		benchCommitLoop(b, store.New())
	})
	b.Run("wal", func(b *testing.B) {
		st, err := store.Open(store.WithJournal(b.TempDir()))
		if err != nil {
			b.Fatal(err)
		}
		defer st.Close()
		benchCommitLoop(b, st)
	})
	b.Run("wal-fsync", func(b *testing.B) {
		st, err := store.Open(store.WithJournal(b.TempDir()), store.WithJournalFsync())
		if err != nil {
			b.Fatal(err)
		}
		defer st.Close()
		benchCommitLoop(b, st)
	})
}
