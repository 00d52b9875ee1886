package store

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"repro/internal/ingest"
	"repro/internal/instance"
	"repro/internal/label"
	"repro/internal/paperrepro"
)

// Tracked instances keep their traces as symbols of the choreography's
// shared interner, with labels the interner did not hold at recording
// time kept as foreign text. The tests below compare that symbol
// replay with the label path — instance.Check over the labels
// InstanceRecords returns — never with itself.

// labelVerdicts classifies every tracked instance of party on the label
// path: instance.Check of InstanceRecords' labels against the party's
// current public process.
func labelVerdicts(t *testing.T, s *Store, id, party string) map[string]instance.Status {
	t.Helper()
	snap, err := s.Snapshot(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	ps, _ := snap.Party(party)
	recs, err := s.InstanceRecords(ctx, id, party)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]instance.Status{}
	for _, rec := range recs {
		st, err := instance.Check(rec.Inst, ps.Public)
		if err != nil {
			t.Fatal(err)
		}
		out[rec.Inst.ID] = st
	}
	return out
}

// assertStatesMatchLabels requires InstanceStates to classify every
// tracked instance of party as the label path does.
func assertStatesMatchLabels(t *testing.T, s *Store, id, party string) map[string]instance.Status {
	t.Helper()
	want := labelVerdicts(t, s, id, party)
	states, err := s.InstanceStates(ctx, id, party)
	if err != nil {
		t.Fatal(err)
	}
	if len(states) != len(want) {
		t.Fatalf("%s: %d instance states, %d records", party, len(states), len(want))
	}
	for _, st := range states {
		if st.Status != want[st.ID] {
			t.Fatalf("%s/%s: InstanceStates says %v, instance.Check on its labels %v", party, st.ID, st.Status, want[st.ID])
		}
	}
	return want
}

// assertSweepMatchesLabels runs a bulk migration of id and requires its
// partition to equal the label path's verdicts for every party.
func assertSweepMatchesLabels(t *testing.T, s *Store, id string) {
	t.Helper()
	want, wantStranded := sequentialBaseline(t, s, id)
	job, err := s.MigrateAll(ctx, id, 2)
	if err != nil {
		t.Fatal(err)
	}
	if v := job.Snapshot(); v.Counts != want {
		t.Fatalf("sweep counts %+v, label path %+v", v.Counts, want)
	}
	got := map[strandedKey]bool{}
	for _, st := range job.Stranded() {
		got[strandedKey{st.Party, st.ID, st.Status}] = true
	}
	if !reflect.DeepEqual(got, wantStranded) {
		t.Fatalf("sweep stranded %v, label path %v", got, wantStranded)
	}
}

// TestForeignLabelPaperCase records an accounting conversation that
// cancels (B#A#orderOp, A#B#cancelOp) before the paper's Sec. 5.2
// cancel change is committed, once through AddInstances and once
// through IngestEvents. A#B#cancelOp is foreign when recorded; after
// the commit it is a label of the accounting public, and the sweep,
// InstanceStates and a recovered store must all replay it as the label
// path does.
func TestForeignLabelPaperCase(t *testing.T) {
	const id = "procurement"
	dir := t.TempDir()
	s, err := Open(WithJournal(dir), WithShards(4))
	if err != nil {
		t.Fatal(err)
	}
	seedPaperScenario(t, s)
	cancel := label.MustParse("A#B#cancelOp")
	trace := []label.Label{"B#A#orderOp", cancel}
	e, err := s.entry(id)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := e.snap.Load().syms.Lookup(cancel); ok {
		t.Fatal("A#B#cancelOp interned before the cancel change")
	}
	if err := s.AddInstances(ctx, id, paperrepro.Accounting, []instance.Instance{{ID: "added", Trace: trace}}); err != nil {
		t.Fatal(err)
	}
	var evs []ingest.Event
	for _, l := range trace {
		evs = append(evs, ingest.Event{Party: paperrepro.Accounting, Instance: "ingested", Label: l})
	}
	if _, err := s.IngestEvents(ctx, id, evs); err != nil {
		t.Fatal(err)
	}
	for _, inst := range []string{"added", "ingested"} {
		sh := &e.inst[instShardOf(paperrepro.Accounting, inst)]
		sh.mu.Lock()
		r := sh.idx[instIdxKey{paperrepro.Accounting, inst}]
		foreign := append([]label.Label(nil), r.foreign...)
		sh.mu.Unlock()
		if !reflect.DeepEqual(foreign, []label.Label{cancel}) {
			t.Fatalf("%s: foreign labels %v, want [%s]", inst, foreign, cancel)
		}
	}
	before := assertStatesMatchLabels(t, s, id, paperrepro.Accounting)
	assertSweepMatchesLabels(t, s, id)

	evo, err := s.Evolve(ctx, id, paperrepro.Accounting, paperrepro.CancelChange())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.CommitEvolution(ctx, evo); err != nil {
		t.Fatal(err)
	}
	if _, ok := e.snap.Load().syms.Lookup(cancel); !ok {
		t.Fatal("the committed cancel change did not intern A#B#cancelOp")
	}
	after := assertStatesMatchLabels(t, s, id, paperrepro.Accounting)
	for _, inst := range []string{"added", "ingested"} {
		if before[inst] != instance.NonReplayable || after[inst] == instance.NonReplayable {
			t.Fatalf("%s: %v before the commit, %v after; want the commit to make it replay", inst, before[inst], after[inst])
		}
	}
	assertSweepMatchesLabels(t, s, id)

	// Kill: no Checkpoint, no Close. The recovered interner holds the
	// cancel label, so recovery may store it as a symbol; the layout
	// compares label text.
	recovered, err := Open(WithJournal(dir), WithShards(4))
	if err != nil {
		t.Fatal(err)
	}
	defer recovered.Close()
	re, err := recovered.entry(id)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(instLayout(e)) != fmt.Sprint(instLayout(re)) {
		t.Fatal("instance layout changed across recovery")
	}
	if got := assertStatesMatchLabels(t, recovered, id, paperrepro.Accounting); !reflect.DeepEqual(got, after) {
		t.Fatalf("recovered verdicts %v, live %v", got, after)
	}
}

// TestSweepMatchesLabelCheckWithForeignLabels is the property: random
// traces that mix the party's labels with labels of other parties,
// made-up labels and labels a later commit introduces, recorded through
// both recording paths, partition under the sweep exactly as
// instance.Check partitions InstanceRecords' labels — before and after
// the commit.
func TestSweepMatchesLabelCheckWithForeignLabels(t *testing.T) {
	seeds := []int64{1, 2, 3, 4}
	if testing.Short() {
		seeds = seeds[:2]
	}
	const id = "procurement"
	parties := []string{paperrepro.Buyer, paperrepro.Accounting, paperrepro.Logistics}
	for _, seed := range seeds {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			s, _ := paperStore(t)
			// Walk the cancel change's public, so traces carry
			// A#B#cancelOp, which the commit below introduces. The
			// candidate comes from a twin store: an evolve analysis on s
			// would put the label into s's interner before the traces
			// are recorded.
			twin, _ := paperStore(t)
			candidate, err := twin.Evolve(ctx, id, paperrepro.Accounting, paperrepro.CancelChange())
			if err != nil {
				t.Fatal(err)
			}
			snap, err := s.Snapshot(ctx, id)
			if err != nil {
				t.Fatal(err)
			}
			known := snap.syms.Labels()[1:]
			for pi, party := range parties {
				ps, _ := snap.Party(party)
				public := ps.Public
				if party == paperrepro.Accounting {
					public = candidate.NewPublic
				}
				insts := instance.SampleInstances(public, seed*10+int64(pi), 40, 10)
				for i := range insts {
					insts[i].ID = fmt.Sprintf("i%d", i)
					for j := range insts[i].Trace {
						switch r := rng.Intn(10); {
						case r == 0:
							insts[i].Trace[j] = label.New(party, "Z", fmt.Sprintf("made%dOp", rng.Intn(3)))
						case r == 1:
							insts[i].Trace[j] = known[rng.Intn(len(known))]
						}
					}
				}
				half := len(insts) / 2
				if err := s.AddInstances(ctx, id, party, insts[:half]); err != nil {
					t.Fatal(err)
				}
				if evs := interleave(party, insts[half:]); len(evs) > 0 {
					submitAll(t, s, id, evs, seed)
				}
			}
			before := map[string]map[string]instance.Status{}
			for _, party := range parties {
				before[party] = assertStatesMatchLabels(t, s, id, party)
			}
			assertSweepMatchesLabels(t, s, id)

			evo, err := s.Evolve(ctx, id, paperrepro.Accounting, paperrepro.CancelChange())
			if err != nil {
				t.Fatal(err)
			}
			if _, err := s.CommitEvolution(ctx, evo); err != nil {
				t.Fatal(err)
			}
			revived := 0
			for _, party := range parties {
				for inst, st := range assertStatesMatchLabels(t, s, id, party) {
					if before[party][inst] == instance.NonReplayable && st != instance.NonReplayable {
						revived++
					}
				}
			}
			if revived == 0 {
				t.Fatal("no trace replays only after the commit; the foreign labels went untested")
			}
			assertSweepMatchesLabels(t, s, id)
		})
	}
}

// TestStatsTakesNoInstanceShardLock pins that a stats scrape never
// waits on an instance-shard lock — the lock an ingest batch holds
// across its journal append.
func TestStatsTakesNoInstanceShardLock(t *testing.T) {
	s, id := paperStore(t)
	insts := []instance.Instance{{ID: "a"}, {ID: "b", Trace: []label.Label{"B#A#orderOp"}}}
	if err := s.AddInstances(ctx, id, paperrepro.Buyer, insts); err != nil {
		t.Fatal(err)
	}
	e, err := s.entry(id)
	if err != nil {
		t.Fatal(err)
	}
	sh := &e.inst[instShardOf(paperrepro.Buyer, "a")]
	sh.mu.Lock()
	done := make(chan Stats, 1)
	go func() { done <- s.Stats() }()
	select {
	case st := <-done:
		sh.mu.Unlock()
		if st.TrackedInstances != 2 || st.InstancesByChoreography[id] != 2 {
			t.Fatalf("stats count %d (%v), want 2", st.TrackedInstances, st.InstancesByChoreography)
		}
	case <-time.After(5 * time.Second):
		sh.mu.Unlock()
		<-done
		t.Fatal("Stats waited on an instance-shard lock")
	}
}

// assertStatsCountRecords requires Stats' instance counts to equal the
// records InstanceRecords returns, per choreography and in total.
func assertStatsCountRecords(t *testing.T, s *Store) {
	t.Helper()
	ids, err := s.IDs(ctx)
	if err != nil {
		t.Fatal(err)
	}
	want, total := map[string]int{}, 0
	for _, id := range ids {
		snap, err := s.Snapshot(ctx, id)
		if err != nil {
			t.Fatal(err)
		}
		want[id] = 0
		for _, party := range snap.Parties() {
			recs, err := s.InstanceRecords(ctx, id, party)
			if err != nil {
				t.Fatal(err)
			}
			want[id] += len(recs)
			total += len(recs)
		}
	}
	st := s.Stats()
	if st.TrackedInstances != total || !reflect.DeepEqual(st.InstancesByChoreography, want) {
		t.Fatalf("stats count %d %v, records %d %v", st.TrackedInstances, st.InstancesByChoreography, total, want)
	}
}

// TestStatsCountsMatchRecords pins the per-shard counts behind Stats
// against the records themselves after AddInstances, ingest, a
// kill-and-reopen and a Delete.
func TestStatsCountsMatchRecords(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(WithJournal(dir), WithShards(4))
	if err != nil {
		t.Fatal(err)
	}
	seedPaperScenario(t, s)
	recordPaperPopulation(t, s, "second", 5, 6)
	assertStatsCountRecords(t, s)
	ingestWave(t, s, 1)
	assertStatsCountRecords(t, s)
	// Kill: no Checkpoint, no Close.
	recovered, err := Open(WithJournal(dir), WithShards(4))
	if err != nil {
		t.Fatal(err)
	}
	defer recovered.Close()
	assertStatsCountRecords(t, recovered)
	if st := recovered.Stats(); st.TrackedInstances != s.Stats().TrackedInstances {
		t.Fatalf("recovered store counts %d instances, live %d", st.TrackedInstances, s.Stats().TrackedInstances)
	}
	if err := recovered.Delete(ctx, "procurement"); err != nil {
		t.Fatal(err)
	}
	assertStatsCountRecords(t, recovered)
}
