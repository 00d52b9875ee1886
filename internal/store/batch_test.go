package store

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/afsa"
	"repro/internal/bpel"
	"repro/internal/change"
	"repro/internal/paperrepro"
)

// PutParties must publish the whole batch as one commit: one version
// bump, every party present afterwards, and the combined registry
// inferred once (the cross-party operations resolve even though no
// single process mentions them all).
func TestPutPartiesSingleCommit(t *testing.T) {
	s := New()
	if err := s.Create(ctx, "c", paperSyncOps); err != nil {
		t.Fatal(err)
	}
	before := s.Stats().Commits
	snap, err := s.PutParties(ctx, "c", []*bpel.Process{
		paperrepro.BuyerProcess(), paperrepro.AccountingProcess(), paperrepro.LogisticsProcess(),
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Version != 1 {
		t.Fatalf("batch register version = %d, want 1", snap.Version)
	}
	if got := s.Stats().Commits - before; got != 1 {
		t.Fatalf("batch register commits = %d, want 1", got)
	}
	if snap.NumParties() != 3 {
		t.Fatalf("parties = %d, want 3", snap.NumParties())
	}
	rep, err := s.Check(ctx, "c")
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Consistent() {
		t.Fatalf("batch-registered scenario inconsistent: %+v", rep.Pairs)
	}

	// A second batch mixing an update (accounting) with no-op partners
	// replaces in place: still one commit, party version bumped.
	before = s.Stats().Commits
	snap2, err := s.PutParties(ctx, "c", []*bpel.Process{paperrepro.AccountingProcess()}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Stats().Commits - before; got != 1 {
		t.Fatalf("batch update commits = %d, want 1", got)
	}
	acc, _ := snap2.Party(paperrepro.Accounting)
	if acc.Version != 2 {
		t.Fatalf("accounting version = %d, want 2", acc.Version)
	}
	buyer, _ := snap2.Party(paperrepro.Buyer)
	if buyer.Version != 1 {
		t.Fatalf("untouched buyer version = %d, want 1", buyer.Version)
	}
}

func TestPutPartiesValidation(t *testing.T) {
	s := New()
	if err := s.Create(ctx, "c", nil); err != nil {
		t.Fatal(err)
	}
	if _, err := s.PutParties(ctx, "c", nil, nil); !errors.Is(err, ErrInvalid) {
		t.Fatalf("empty batch error = %v, want ErrInvalid", err)
	}
	dup := []*bpel.Process{paperrepro.BuyerProcess(), paperrepro.BuyerProcess()}
	if _, err := s.PutParties(ctx, "c", dup, nil); !errors.Is(err, ErrInvalid) {
		t.Fatalf("duplicate-owner batch error = %v, want ErrInvalid", err)
	}
	if _, err := s.PutParties(ctx, "ghost", []*bpel.Process{paperrepro.BuyerProcess()}, nil); !errors.Is(err, ErrNotFound) {
		t.Fatalf("unknown choreography error = %v, want ErrNotFound", err)
	}
}

// A multi-op Evolve is one change transaction: the analysis equals the
// analysis of the sequential composition, there is exactly one
// evolution (not one per op), and committing it bumps the version once.
func TestEvolveMultiOpMatchesSequentialComposition(t *testing.T) {
	ops := []change.Operation{paperrepro.OrderTwoChange(), paperrepro.TrackingLimitChange()}

	// Reference: apply the ops by hand, evolve with a whole-process
	// replacement.
	final := paperrepro.AccountingProcess()
	for _, op := range ops {
		next, err := op.Apply(final)
		if err != nil {
			t.Fatal(err)
		}
		final = next
	}
	sRef, idRef := paperStore(t)
	refEvo, err := sRef.Evolve(ctx, idRef, paperrepro.Accounting, change.Replace{Path: nil, New: final.Body})
	if err != nil {
		t.Fatal(err)
	}

	s, id := paperStore(t)
	before := s.Stats().Evolutions
	evo, err := s.Evolve(ctx, id, paperrepro.Accounting, ops...)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Stats().Evolutions - before; got != 1 {
		t.Fatalf("multi-op analysis counted %d evolutions, want 1", got)
	}
	if len(evo.Ops) != 2 {
		t.Fatalf("evolution ops = %d, want 2", len(evo.Ops))
	}
	if !afsa.Equivalent(evo.NewPublic, refEvo.NewPublic) {
		t.Fatal("multi-op public differs from sequential composition")
	}
	if len(evo.Impacts) != len(refEvo.Impacts) {
		t.Fatalf("impacts = %d, want %d", len(evo.Impacts), len(refEvo.Impacts))
	}
	for i := range evo.Impacts {
		got, want := evo.Impacts[i], refEvo.Impacts[i]
		if got.Partner != want.Partner || got.ViewChanged != want.ViewChanged ||
			got.Classification != want.Classification || len(got.Plans) != len(want.Plans) {
			t.Fatalf("impact %d differs: %+v vs %+v", i, got, want)
		}
	}

	snapBefore, _ := s.Snapshot(ctx, id)
	snap, err := s.CommitEvolution(ctx, evo)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Version != snapBefore.Version+1 {
		t.Fatalf("committed version = %d, want one bump from %d", snap.Version, snapBefore.Version)
	}
}

func TestEvolveNoOpsRejected(t *testing.T) {
	s, id := paperStore(t)
	if _, err := s.Evolve(ctx, id, paperrepro.Accounting); !errors.Is(err, ErrInvalid) {
		t.Fatalf("empty evolve error = %v, want ErrInvalid", err)
	}
}

// A canceled context must stop the expensive paths with a context
// error instead of computing a result.
func TestContextCancellation(t *testing.T) {
	s, id := paperStore(t)
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.Check(canceled, id); !errors.Is(err, context.Canceled) {
		t.Fatalf("Check on canceled ctx = %v, want context.Canceled", err)
	}
	if _, err := s.Evolve(canceled, id, paperrepro.Accounting, paperrepro.CancelChange()); !errors.Is(err, context.Canceled) {
		t.Fatalf("Evolve on canceled ctx = %v, want context.Canceled", err)
	}
	if _, err := s.Snapshot(canceled, id); !errors.Is(err, context.Canceled) {
		t.Fatalf("Snapshot on canceled ctx = %v, want context.Canceled", err)
	}
	if err := s.Create(canceled, "other", nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("Create on canceled ctx = %v, want context.Canceled", err)
	}

	// The mutators answer a canceled call before any work: each call
	// below would otherwise fail its precondition with ErrExists or
	// ErrConflict, and a conflict would be counted.
	before := s.Stats()
	stale := uint64(0)
	for name, mutate := range map[string]func() error{
		"RegisterParty": func() error {
			_, err := s.RegisterParty(canceled, id, paperrepro.BuyerProcess())
			return err
		},
		"UpdateParty": func() error {
			_, err := s.UpdateParty(canceled, id, paperrepro.BuyerProcess(), &stale)
			return err
		},
		"PutParties": func() error {
			_, err := s.PutParties(canceled, id, []*bpel.Process{paperrepro.BuyerProcess()}, &stale)
			return err
		},
		"ApplyOps": func() error {
			_, err := s.ApplyOps(canceled, id, paperrepro.Accounting, []change.Operation{paperrepro.CancelChange()}, 99)
			return err
		},
	} {
		if err := mutate(); !errors.Is(err, context.Canceled) {
			t.Errorf("%s on canceled ctx = %v, want context.Canceled", name, err)
		}
	}
	if after := s.Stats(); after.Commits != before.Commits || after.Conflicts != before.Conflicts {
		t.Fatalf("canceled mutators moved commits %d → %d, conflicts %d → %d",
			before.Commits, after.Commits, before.Conflicts, after.Conflicts)
	}
}

// WithCacheCap bounds the per-choreography consistency cache: with a
// cap of 1 the paper scenario's two pairs cannot both stay resident,
// yet every answer (cached or recomputed) remains correct.
func TestCacheCapEviction(t *testing.T) {
	s := New(WithCacheCap(1))
	const id = "capped"
	if err := s.Create(ctx, id, paperSyncOps); err != nil {
		t.Fatal(err)
	}
	for _, p := range []*bpel.Process{
		paperrepro.BuyerProcess(), paperrepro.AccountingProcess(), paperrepro.LogisticsProcess(),
	} {
		if _, err := s.RegisterParty(ctx, id, p); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		rep, err := s.Check(ctx, id)
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Consistent() {
			t.Fatalf("round %d inconsistent: %+v", i, rep.Pairs)
		}
		e, err := s.entry(id)
		if err != nil {
			t.Fatal(err)
		}
		e.consMu.RLock()
		size := len(e.cons)
		e.consMu.RUnlock()
		if size > 1 {
			t.Fatalf("round %d cache size = %d, want <= cap 1", i, size)
		}
	}
	fresh, err := s.CheckUncached(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	if !fresh.Consistent() {
		t.Fatalf("uncached recomputation disagrees: %+v", fresh.Pairs)
	}
}

// The If-Match precondition is enforced under the commit lock: of many
// concurrent writes pinned to the same snapshot version, exactly one
// wins and every other one fails with ErrConflict — no lost updates.
func TestPreconditionSingleWinnerUnderContention(t *testing.T) {
	s, id := paperStore(t)
	base, err := s.Snapshot(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	const contenders = 8
	var wg sync.WaitGroup
	var wins, conflicts atomic.Uint64
	for i := 0; i < contenders; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v := base.Version
			var err error
			if i%2 == 0 {
				_, err = s.PutParties(ctx, id, []*bpel.Process{paperrepro.AccountingProcess()}, &v)
			} else {
				_, err = s.UpdateParty(ctx, id, paperrepro.AccountingProcess(), &v)
			}
			switch {
			case err == nil:
				wins.Add(1)
			case errors.Is(err, ErrConflict):
				conflicts.Add(1)
			default:
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
	if wins.Load() != 1 || conflicts.Load() != contenders-1 {
		t.Fatalf("wins = %d, conflicts = %d, want 1/%d", wins.Load(), conflicts.Load(), contenders-1)
	}
	after, err := s.Snapshot(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	if after.Version != base.Version+1 {
		t.Fatalf("version = %d, want exactly one bump from %d", after.Version, base.Version)
	}
}
