package store

import (
	"errors"
	"fmt"
	"os"
	"strconv"
	"testing"

	"repro/internal/fault"
	"repro/internal/ingest"
	"repro/internal/instance"
	"repro/internal/scenario"
)

// chaosRate returns the probabilistic fault rate for the soak: the
// CHOREO_CHAOS_RATE environment variable when set (CI can turn the
// screw), 5% otherwise.
func chaosRate(t *testing.T) float64 {
	if v := os.Getenv("CHOREO_CHAOS_RATE"); v != "" {
		rate, err := strconv.ParseFloat(v, 64)
		if err != nil || rate <= 0 || rate > 1 {
			t.Fatalf("CHOREO_CHAOS_RATE=%q: want a float in (0,1]", v)
		}
		return rate
	}
	return 0.05
}

// chaosRetry runs op until it succeeds, tolerating only injected
// faults — any other error fails the test. The store's failure
// protocol makes this safe: a failed append applies nothing, so the
// retry is a clean re-submission, never a double apply.
func chaosRetry(t *testing.T, what string, op func() error) {
	t.Helper()
	for attempt := 0; ; attempt++ {
		err := op()
		if err == nil {
			return
		}
		if !errors.Is(err, fault.ErrInjected) {
			t.Fatalf("%s: non-injected failure: %v", what, err)
		}
		if attempt > 200 {
			t.Fatalf("%s: still failing after %d injected faults: %v", what, attempt, err)
		}
	}
}

// chaosEpisode drives one scripted episode — evolve, commit, adapt,
// migrate, ingest — with every journaled mutation behind chaosRetry.
// Commits carry idempotency keys, as a real client's retries would.
// It asserts outcomes only loosely (the manifest's exact expectations
// are corpus_test.go's job); the soak's real assertion is the
// live-vs-recovered deep equality afterwards.
func chaosEpisode(t *testing.T, s *Store, sc *scenario.Scenario, epi int, ep scenario.Episode) {
	t.Helper()
	ops, err := ep.Operations()
	if err != nil {
		t.Fatal(err)
	}
	var evo *Evolution
	chaosRetry(t, "Evolve", func() error {
		evo, err = s.Evolve(ctx, sc.Name, ep.Party, ops...)
		return err
	})
	key := fmt.Sprintf("chaos-%s-%d", sc.Name, epi)
	chaosRetry(t, "CommitEvolution", func() error {
		_, _, err := s.CommitEvolutionIdem(ctx, evo, key)
		return err
	})
	for _, ad := range ep.Adaptations {
		adOps, err := ad.Operations()
		if err != nil {
			t.Fatal(err)
		}
		chaosRetry(t, "ApplyOps", func() error {
			snap, err := s.Snapshot(ctx, sc.Name)
			if err != nil {
				return err
			}
			ps, ok := snap.Party(ad.Party)
			if !ok {
				return fmt.Errorf("adaptation party %s missing", ad.Party)
			}
			_, err = s.ApplyOps(ctx, sc.Name, ad.Party, adOps, ps.Version)
			return err
		})
	}
	chaosRetry(t, "MigrateAll", func() error {
		_, err := s.MigrateAll(ctx, sc.Name, 4)
		return err
	})
	// Stream the scripted traces. A failed submission may have applied
	// some lanes (the delivery contract), so the retry can double-apply
	// events — harmless here: acked state and journal still agree,
	// which is exactly what the recovery check pins.
	evs := scenario.Events(sc.Instances, fmt.Sprintf("-chaos%d", epi))
	for len(evs) > 0 {
		n := 31
		if n > len(evs) {
			n = len(evs)
		}
		batch := make([]ingest.Event, n)
		for i, ev := range evs[:n] {
			batch[i] = ingest.Event{Party: ev.Party, Instance: ev.Instance, Label: ev.Label}
		}
		chaosRetry(t, "IngestEvents", func() error {
			_, err := s.IngestEvents(ctx, sc.Name, batch)
			return err
		})
		evs = evs[n:]
	}
}

// TestChaosSoak replays the scenario corpus against a journaled store
// with probabilistic journal faults armed (5% by default,
// CHOREO_CHAOS_RATE to override), then kills the store without a
// handshake and reopens the directory. The invariant under fire:
// every acked write survives — the recovered store deep-equals the
// live store's in-memory state, including instance shard slots,
// schema tags, and the idempotency window. WAL truncation faults are
// deliberately NOT armed: a failed rollback poisons the journal and
// degrading mid-soak is its own test (see degraded_test.go).
func TestChaosSoak(t *testing.T) {
	rate := chaosRate(t)
	var before uint64
	for _, name := range fault.Names() {
		n, err := fault.Fires(name)
		if err != nil {
			t.Fatal(err)
		}
		before += n
	}

	for _, sc := range corpusScenarios(t) {
		episodes := sc.Episodes
		if testing.Short() && len(episodes) > 1 {
			episodes = episodes[:1]
		}
		for epi, ep := range episodes {
			sc, epi, ep := sc, epi, ep
			t.Run(sc.Name+"/"+ep.Name, func(t *testing.T) {
				chaosSoakEpisode(t, sc, epi, ep, rate)
			})
		}
	}

	var after uint64
	for _, name := range fault.Names() {
		n, err := fault.Fires(name)
		if err != nil {
			t.Fatal(err)
		}
		after += n
	}
	if after == before {
		t.Fatalf("soak at rate %g injected zero faults — not a chaos test", rate)
	}
	t.Logf("soak injected %d faults at rate %g", after-before, rate)
}

// chaosSoakEpisode is one soak cell: a journaled store under
// probabilistic journal faults carries a corpus episode end to end,
// then the process "dies" — no Close, no final checkpoint — and the
// reopened store must deep-equal the live one.
func chaosSoakEpisode(t *testing.T, sc *scenario.Scenario, epi int, ep scenario.Episode, rate float64) {
	dir := t.TempDir()
	s, err := Open(WithJournal(dir), WithShards(4))
	if err != nil {
		t.Fatal(err)
	}
	for i, pt := range []string{
		fault.PointJournalAppendWrite,
		fault.PointJournalCheckpointWrite,
		fault.PointJournalCheckpointRename,
	} {
		// Distinct fixed seeds per point and episode keep runs
		// reproducible without correlating the fault streams.
		if err := fault.Arm(pt, fault.Trigger{Prob: rate, Seed: uint64(1000*epi + i + 1)}); err != nil {
			t.Fatal(err)
		}
	}
	t.Cleanup(fault.DisarmAll)

	chaosRetry(t, "Create", func() error { return s.Create(ctx, sc.Name, sc.SyncOps) })
	for _, p := range sc.Parties {
		p := p
		chaosRetry(t, "RegisterParty", func() error {
			_, err := s.RegisterParty(ctx, sc.Name, p)
			return err
		})
	}
	for _, p := range sc.Parties {
		var insts []instance.Instance
		for _, in := range sc.InstancesOf(p.Owner) {
			insts = append(insts, instance.Instance{ID: in.ID, Trace: in.Trace})
		}
		if len(insts) == 0 {
			continue
		}
		owner := p.Owner
		chaosRetry(t, "AddInstances", func() error {
			return s.AddInstances(ctx, sc.Name, owner, insts)
		})
	}
	chaosEpisode(t, s, sc, epi, ep)

	// A mid-soak checkpoint under fire: it may fail (tmp write or
	// rename injected), but must never shadow the WAL — recovery below
	// proves it.
	if _, err := s.Checkpoint(ctx); err != nil && !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("Checkpoint: %v", err)
	}
	if err := s.Degraded(); err != nil {
		t.Fatalf("store degraded during soak: %v", err)
	}

	// Kill without Close, disarm, reopen: zero acked-write loss means
	// the recovered store equals the live one exactly.
	fault.DisarmAll()
	recovered, err := Open(WithJournal(dir), WithShards(4))
	if err != nil {
		t.Fatalf("recovery after soak: %v", err)
	}
	defer recovered.Close()
	assertStoresEqual(t, s, recovered)
}
