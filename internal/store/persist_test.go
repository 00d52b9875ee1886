package store

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/afsa"
	"repro/internal/bpel"
	"repro/internal/change"
	"repro/internal/gen"
	"repro/internal/ingest"
	"repro/internal/instance"
	"repro/internal/journal"
	"repro/internal/label"
	"repro/internal/migrate"
	"repro/internal/paperrepro"
)

// ---- deep equality ----

// instKey flattens one tracked instance record for comparison.
type instKey struct {
	shard  int
	party  string
	idx    int
	id     string
	trace  string
	schema uint64
}

// instLayout captures an entry's exact instance-shard layout —
// including slice positions, which pending migration jobs address
// records by.
func instLayout(e *entry) []instKey {
	var out []instKey
	for i := range e.inst {
		sh := &e.inst[i]
		sh.mu.Lock()
		parties := make([]string, 0, len(sh.recs))
		for party := range sh.recs {
			parties = append(parties, party)
		}
		sort.Strings(parties)
		names := e.snap.Load().syms.Labels()
		for _, party := range parties {
			for idx, rec := range sh.recs[party] {
				trace := ""
				for _, l := range rec.labeled(names).Trace {
					trace += string(l) + ";"
				}
				out = append(out, instKey{shard: i, party: party, idx: idx, id: rec.id, trace: trace, schema: rec.schema})
			}
		}
		sh.mu.Unlock()
	}
	return out
}

// assertStoresEqual fails unless got is deep-equal to want:
// choreographies, snapshot and party versions, private processes,
// public automata (language + annotations), interacting pairs,
// consistency results, instance records with their schema tags and
// shard slots, and migration-job states with their retention order.
func assertStoresEqual(t *testing.T, want, got *Store) {
	t.Helper()
	wantIDs, err := want.IDs(ctx)
	if err != nil {
		t.Fatal(err)
	}
	gotIDs, err := got.IDs(ctx)
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(wantIDs)
	sort.Strings(gotIDs)
	if fmt.Sprint(wantIDs) != fmt.Sprint(gotIDs) {
		t.Fatalf("choreography IDs: recovered %v, want %v", gotIDs, wantIDs)
	}
	for _, id := range wantIDs {
		ws, err := want.Snapshot(ctx, id)
		if err != nil {
			t.Fatal(err)
		}
		gs, err := got.Snapshot(ctx, id)
		if err != nil {
			t.Fatalf("%s: missing after recovery: %v", id, err)
		}
		if gs.Version != ws.Version {
			t.Fatalf("%s: recovered version %d, want %d", id, gs.Version, ws.Version)
		}
		if fmt.Sprint(gs.Parties()) != fmt.Sprint(ws.Parties()) {
			t.Fatalf("%s: recovered parties %v, want %v", id, gs.Parties(), ws.Parties())
		}
		for _, name := range ws.Parties() {
			wp, _ := ws.Party(name)
			gp, ok := gs.Party(name)
			if !ok {
				t.Fatalf("%s/%s: missing after recovery", id, name)
			}
			if gp.Version != wp.Version {
				t.Fatalf("%s/%s: recovered party version %d, want %d", id, name, gp.Version, wp.Version)
			}
			wx, err := bpel.MarshalXML(wp.Private)
			if err != nil {
				t.Fatal(err)
			}
			gx, err := bpel.MarshalXML(gp.Private)
			if err != nil {
				t.Fatal(err)
			}
			if string(wx) != string(gx) {
				t.Fatalf("%s/%s: recovered private process differs:\n%s\nwant:\n%s", id, name, gx, wx)
			}
			if !afsa.Equivalent(wp.Public, gp.Public) {
				t.Fatalf("%s/%s: recovered public process not equivalent", id, name)
			}
		}
		if fmt.Sprint(gs.InteractingPairs()) != fmt.Sprint(ws.InteractingPairs()) {
			t.Fatalf("%s: recovered pairs %v, want %v", id, gs.InteractingPairs(), ws.InteractingPairs())
		}
		wrep, err := want.Check(ctx, id)
		if err != nil {
			t.Fatal(err)
		}
		grep, err := got.Check(ctx, id)
		if err != nil {
			t.Fatalf("%s: recovered check: %v", id, err)
		}
		if len(wrep.Pairs) != len(grep.Pairs) {
			t.Fatalf("%s: recovered %d pair results, want %d", id, len(grep.Pairs), len(wrep.Pairs))
		}
		for i := range wrep.Pairs {
			w, g := wrep.Pairs[i], grep.Pairs[i]
			if w.A != g.A || w.B != g.B || w.Consistent != g.Consistent {
				t.Fatalf("%s: pair %d recovered %+v, want %+v", id, i, g, w)
			}
		}
		we, err := want.entry(id)
		if err != nil {
			t.Fatal(err)
		}
		ge, err := got.entry(id)
		if err != nil {
			t.Fatal(err)
		}
		wl, gl := instLayout(we), instLayout(ge)
		if fmt.Sprint(wl) != fmt.Sprint(gl) {
			t.Fatalf("%s: recovered instance layout differs:\n got %v\nwant %v", id, gl, wl)
		}
	}
	assertJobsEqual(t, want, got)
}

func assertJobsEqual(t *testing.T, want, got *Store) {
	t.Helper()
	wjobs, worder := jobStates(want)
	gjobs, gorder := jobStates(got)
	if len(wjobs) != len(gjobs) {
		t.Fatalf("recovered %d migration jobs, want %d", len(gjobs), len(wjobs))
	}
	// migOrder decides which job retention evicts next.
	if fmt.Sprint(gorder) != fmt.Sprint(worder) {
		t.Fatalf("recovered job retention order %v, want %v", gorder, worder)
	}
	for id, w := range wjobs {
		g, ok := gjobs[id]
		if !ok {
			t.Fatalf("job %s missing after recovery", id)
		}
		if g.Choreography != w.Choreography || g.TargetVersion != w.TargetVersion || g.Status != w.Status {
			t.Fatalf("job %s recovered {%s v%d %s}, want {%s v%d %s}",
				id, g.Choreography, g.TargetVersion, g.Status, w.Choreography, w.TargetVersion, w.Status)
		}
		if fmt.Sprint(g.Done) != fmt.Sprint(w.Done) {
			t.Fatalf("job %s recovered shard checkpoint differs", id)
		}
		if g.Counts != w.Counts {
			t.Fatalf("job %s recovered counts %+v, want %+v", id, g.Counts, w.Counts)
		}
		sortStranded(w.Stranded)
		sortStranded(g.Stranded)
		if fmt.Sprint(g.Stranded) != fmt.Sprint(w.Stranded) {
			t.Fatalf("job %s recovered stranded report differs:\n got %v\nwant %v", id, g.Stranded, w.Stranded)
		}
	}
}

// jobStates returns s's migration jobs by ID and their retention
// order.
func jobStates(s *Store) (map[string]migrate.JobState, []string) {
	s.migMu.Lock()
	defer s.migMu.Unlock()
	out := make(map[string]migrate.JobState, len(s.migs))
	for id, job := range s.migs {
		out[id] = job.State()
	}
	return out, append([]string(nil), s.migOrder...)
}

func sortStranded(sts []migrate.Stranded) {
	sort.Slice(sts, func(a, b int) bool {
		if sts[a].Party != sts[b].Party {
			return sts[a].Party < sts[b].Party
		}
		return sts[a].ID < sts[b].ID
	})
}

// ---- deterministic random op sequences ----

// opSeq drives one store through a deterministic pseudo-random
// mutation sequence; applying the same seq to two stores yields
// identical states.
type opSeq struct {
	rng  *rand.Rand
	ids  []string // live choreographies
	next int      // next choreography number
}

func newOpSeq(seed int64) *opSeq { return &opSeq{rng: rand.New(rand.NewSource(seed))} }

func (q *opSeq) genParams() gen.Params {
	return gen.Params{
		PartyA: "A", PartyB: "B",
		Messages:   3 + q.rng.Intn(4),
		MaxDepth:   2,
		ChoiceProb: 30,
		MaxBranch:  2,
	}
}

// step applies one random mutation; checkpoint decides whether
// Checkpoint is among the candidate operations (it must be excluded
// when a mirror store without a journal replays the sequence).
func (q *opSeq) step(t *testing.T, s *Store, checkpoint bool) {
	t.Helper()
	choice := q.rng.Intn(100)
	switch {
	case choice < 20 || len(q.ids) == 0:
		id := fmt.Sprintf("chor-%03d", q.next)
		q.next++
		if err := s.Create(ctx, id, nil); err != nil {
			t.Fatalf("create %s: %v", id, err)
		}
		conv, err := gen.Generate(q.rng.Int63(), q.genParams())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.PutParties(ctx, id, []*bpel.Process{conv.A, conv.B}, nil); err != nil {
			t.Fatalf("put parties %s: %v", id, err)
		}
		q.ids = append(q.ids, id)
	case choice < 40:
		id := q.pick()
		conv, err := gen.Generate(q.rng.Int63(), q.genParams())
		if err != nil {
			t.Fatal(err)
		}
		p := conv.A
		if q.rng.Intn(2) == 0 {
			p = conv.B
		}
		if _, err := s.UpdateParty(ctx, id, p, nil); err != nil {
			t.Fatalf("update %s/%s: %v", id, p.Owner, err)
		}
	case choice < 55:
		// Evolve-and-commit a whole-body replacement: the analyzed
		// path, exercising CommitEvolution's journaling.
		id := q.pick()
		conv, err := gen.Generate(q.rng.Int63(), q.genParams())
		if err != nil {
			t.Fatal(err)
		}
		party := conv.A.Owner
		evo, err := s.Evolve(ctx, id, party, change.Replace{New: conv.A.Body})
		if err != nil {
			t.Fatalf("evolve %s/%s: %v", id, party, err)
		}
		if _, err := s.CommitEvolution(ctx, evo); err != nil {
			t.Fatalf("commit %s/%s: %v", id, party, err)
		}
	case choice < 68:
		id := q.pick()
		party := "A"
		if q.rng.Intn(2) == 0 {
			party = "B"
		}
		if _, err := s.SampleInstances(ctx, id, party, q.rng.Int63(), 1+q.rng.Intn(6), 3+q.rng.Intn(6)); err != nil {
			t.Fatalf("sample %s/%s: %v", id, party, err)
		}
	case choice < 78:
		id := q.pick()
		if _, err := s.MigrateAll(ctx, id, 1+q.rng.Intn(3)); err != nil {
			t.Fatalf("migrate %s: %v", id, err)
		}
	case choice < 89:
		// Streaming ingest targeting a single instance: one lane, one
		// apply, exactly one WAL record — which keeps the
		// cut-at-every-op boundaries of the recovery harness valid.
		// Reused instance IDs extend earlier traces; a junk label (one
		// the interner has never seen) records a deviation.
		id := q.pick()
		party := "A"
		if q.rng.Intn(2) == 0 {
			party = "B"
		}
		instID := fmt.Sprintf("ing-%02d", q.rng.Intn(24))
		junk := q.rng.Intn(4) == 0
		junkN := q.rng.Intn(3)
		sampleSeed := q.rng.Int63()
		maxLen := 2 + q.rng.Intn(5)
		snap, err := s.Snapshot(ctx, id)
		if err != nil {
			t.Fatalf("snapshot %s: %v", id, err)
		}
		ps, ok := snap.Party(party)
		if !ok {
			t.Fatalf("%s: party %s missing", id, party)
		}
		var evs []ingest.Event
		for _, l := range instance.SampleInstances(ps.Public, sampleSeed, 1, maxLen)[0].Trace {
			evs = append(evs, ingest.Event{Party: party, Instance: instID, Label: l})
		}
		if junk || len(evs) == 0 {
			evs = append(evs, ingest.Event{
				Party: party, Instance: instID,
				Label: label.Label(fmt.Sprintf("%s#Z#junk%dOp", party, junkN)),
			})
		}
		if _, err := s.IngestEvents(ctx, id, evs); err != nil {
			t.Fatalf("ingest %s/%s: %v", id, party, err)
		}
	case choice < 93 && len(q.ids) > 1:
		i := q.rng.Intn(len(q.ids))
		id := q.ids[i]
		q.ids = append(q.ids[:i], q.ids[i+1:]...)
		if err := s.Delete(ctx, id); err != nil {
			t.Fatalf("delete %s: %v", id, err)
		}
	default:
		if checkpoint {
			if _, err := s.Checkpoint(ctx); err != nil {
				t.Fatalf("checkpoint: %v", err)
			}
		} else if len(q.ids) > 0 {
			// Mirror runs trade the checkpoint slot for a cheap read.
			if _, err := s.Check(ctx, q.pick()); err != nil {
				t.Fatalf("check: %v", err)
			}
		}
	}
}

func (q *opSeq) pick() string { return q.ids[q.rng.Intn(len(q.ids))] }

// ---- the recovery property ----

// TestRecoverRandomOps is the kill-and-reopen property test: a
// durable store driven through a random mutation sequence (with
// checkpoints interleaved, so recovery exercises snapshot + log tail)
// is killed without any shutdown handshake and reopened; the
// recovered store must be deep-equal to the pre-crash one.
func TestRecoverRandomOps(t *testing.T) {
	seeds := []int64{1, 2, 3, 4, 5, 6, 7, 8}
	steps := 60
	if testing.Short() {
		seeds = seeds[:3]
		steps = 30
	}
	for _, seed := range seeds {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			dir := t.TempDir()
			s, err := Open(WithJournal(dir), WithShards(4))
			if err != nil {
				t.Fatal(err)
			}
			q := newOpSeq(seed)
			for i := 0; i < steps; i++ {
				q.step(t, s, true)
			}
			// Kill: no Checkpoint, no Close. The journal on disk is all
			// that survives.
			recovered, err := Open(WithJournal(dir), WithShards(4))
			if err != nil {
				t.Fatalf("recovery: %v", err)
			}
			defer recovered.Close()
			assertStoresEqual(t, s, recovered)
		})
	}
}

// TestRecoverCutAtEveryOp kills the store after every prefix of a
// random op sequence — simulating a crash at each append boundary,
// with trailing garbage standing in for the torn first record of the
// next mutation — and checks the recovered store equals an in-memory
// mirror that ran exactly that prefix.
func TestRecoverCutAtEveryOp(t *testing.T) {
	const seed = 42
	steps := 25
	if testing.Short() {
		steps = 12
	}
	dir := t.TempDir()
	s, err := Open(WithJournal(dir), WithShards(4))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	q := newOpSeq(seed)
	cuts := make([]int64, 0, steps)
	for i := 0; i < steps; i++ {
		q.step(t, s, false) // no checkpoints: WAL offsets must only grow
		cuts = append(cuts, s.jnl.WALSize())
	}
	wal, err := os.ReadFile(filepath.Join(dir, "wal.log"))
	if err != nil {
		t.Fatal(err)
	}
	for i, cut := range cuts {
		t.Run(fmt.Sprintf("op%02d", i), func(t *testing.T) {
			cutDir := t.TempDir()
			torn := append(append([]byte(nil), wal[:cut]...), 0x7f, 0x3a, 0x99)
			if err := os.WriteFile(filepath.Join(cutDir, "wal.log"), torn, 0o644); err != nil {
				t.Fatal(err)
			}
			recovered, err := Open(WithJournal(cutDir), WithShards(4))
			if err != nil {
				t.Fatalf("recovery at op %d: %v", i, err)
			}
			defer recovered.Close()
			mirror := New(WithShards(4))
			mq := newOpSeq(seed)
			for j := 0; j <= i; j++ {
				mq.step(t, mirror, false)
			}
			assertStoresEqual(t, mirror, recovered)
		})
	}
}

// TestRecoverAfterCheckpointOnly pins pure-snapshot recovery: after a
// checkpoint and a clean close, reopening must restore everything
// from the snapshot alone (the WAL is empty).
func TestRecoverAfterCheckpointOnly(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(WithJournal(dir))
	if err != nil {
		t.Fatal(err)
	}
	seedPaperScenario(t, s)
	if _, err := s.MigrateAll(ctx, "procurement", 2); err != nil {
		t.Fatal(err)
	}
	info, err := s.Checkpoint(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if info.LSN == 0 || info.Bytes == 0 {
		t.Fatalf("checkpoint info = %+v", info)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	recovered, err := Open(WithJournal(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer recovered.Close()
	assertStoresEqual(t, s, recovered)
	// The recovered store keeps journaling: another mutation and
	// reopen must survive too.
	if _, err := recovered.SampleInstances(ctx, "procurement", paperrepro.Buyer, 7, 3, 6); err != nil {
		t.Fatal(err)
	}
	third, err := Open(WithJournal(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer third.Close()
	assertStoresEqual(t, recovered, third)
}

// seedPaperScenario loads the paper's procurement scenario plus a few
// instances into a store through its public mutation API.
func seedPaperScenario(t *testing.T, s *Store) {
	t.Helper()
	if err := s.Create(ctx, "procurement", paperSyncOps); err != nil {
		t.Fatal(err)
	}
	procs := []*bpel.Process{
		paperrepro.BuyerProcess(), paperrepro.AccountingProcess(), paperrepro.LogisticsProcess(),
	}
	if _, err := s.PutParties(ctx, "procurement", procs, nil); err != nil {
		t.Fatal(err)
	}
	for i, party := range []string{paperrepro.Buyer, paperrepro.Accounting, paperrepro.Logistics} {
		if _, err := s.SampleInstances(ctx, "procurement", party, int64(100+i), 10, 8); err != nil {
			t.Fatal(err)
		}
	}
	evo, err := s.Evolve(ctx, "procurement", paperrepro.Accounting, paperrepro.TrackingLimitChange())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.CommitEvolution(ctx, evo); err != nil {
		t.Fatal(err)
	}
}

// TestRecoveredMigrationResumes pins the crash-interrupted sweep
// story: a job created pre-crash is recovered in a resumable state
// and a post-recovery MigrateAll completes it with exact counters.
func TestRecoveredMigrationResumes(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(WithJournal(dir))
	if err != nil {
		t.Fatal(err)
	}
	seedPaperScenario(t, s)
	job, err := s.MigrateAll(ctx, "procurement", 2)
	if err != nil {
		t.Fatal(err)
	}
	want := job.Snapshot()
	recovered, err := Open(WithJournal(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer recovered.Close()
	rjob, err := recovered.MigrationJob(ctx, "procurement", job.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got := rjob.Snapshot(); got.Status != migrate.StatusDone || got.Counts != want.Counts {
		t.Fatalf("recovered job = %+v, want done with %+v", got, want.Counts)
	}
	// Idempotence across the crash: re-running the recovered job must
	// not re-sweep or change anything.
	again, err := recovered.MigrateAll(ctx, "procurement", 2)
	if err != nil {
		t.Fatal(err)
	}
	if got := again.Snapshot(); got.Counts != want.Counts {
		t.Fatalf("re-run after recovery changed counters: %+v, want %+v", got.Counts, want.Counts)
	}
}

// TestRecoverLegacyMigrationRecords pins the replay of logs written
// before a swept shard's tag advances moved into its migShard record:
// per shard, a migTags record listing every migrated ref, then a
// migShard fold without tags. The recovered store must hold the same
// schema tags and job state (done shards, counts, stranded report) as
// a live sweep of the same population produces.
func TestRecoverLegacyMigrationRecords(t *testing.T) {
	const id = "procurement"
	live, err := Open(WithJournal(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	defer live.Close()
	seed := func(s *Store) {
		recordPaperPopulation(t, s, id, 40, 12)
		commitTrackingLimit(t, s, id)
	}
	seed(live)
	job, err := live.MigrateAll(ctx, id, 2)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	old, err := Open(WithJournal(dir))
	if err != nil {
		t.Fatal(err)
	}
	seed(old)
	e, err := old.entry(id)
	if err != nil {
		t.Fatal(err)
	}
	snap := e.snap.Load()
	legacy := []walRecord{{MigJob: &recMigJob{Job: job.ID, ID: id, Version: snap.Version, Shards: instShardCount}}}
	for shard := range e.inst {
		tags := recMigTags{ID: id, Target: snap.Version, Shard: shard, Refs: []tagRef{}}
		var tally migrate.Tally
		for _, party := range snap.order {
			chk, err := snap.parties[party].complianceChecker()
			if err != nil {
				t.Fatal(err)
			}
			for ref, r := range e.inst[shard].recs[party] {
				if tally.Add(party, r.id, chk.Check(r.labeled(snap.syms.Labels()))) {
					tags.Refs = append(tags.Refs, tagRef{Party: party, Ref: ref})
				}
			}
		}
		legacy = append(legacy,
			walRecord{MigTags: &tags},
			walRecord{MigShard: &recMigShard{Job: job.ID, Shard: shard, Counts: tally.Counts, Stranded: tally.Stranded}})
	}
	if err := old.Close(); err != nil {
		t.Fatal(err)
	}
	jnl, _, _, err := journal.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range legacy {
		data, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := jnl.Append(data); err != nil {
			t.Fatal(err)
		}
	}
	if err := jnl.Close(); err != nil {
		t.Fatal(err)
	}

	recovered, err := Open(WithJournal(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer recovered.Close()
	if got := schemaTags(t, recovered, id); fmt.Sprint(got) != fmt.Sprint(schemaTags(t, live, id)) {
		t.Fatal("legacy records recovered other schema tags than the live sweep")
	}
	if v := job.Snapshot(); v.Status != migrate.StatusDone || v.NonReplayable+v.Unviable == 0 {
		t.Fatalf("live sweep = %+v, want done with stranded instances", v)
	}
	assertStoresEqual(t, live, recovered)
}

// TestReplayCoversEveryRecord pins replay's dispatch over walRecord:
// a record carrying only one field, set to its zero value, must reach
// that field's arm rather than the empty-record error a record type
// without an arm falls into, and a record with no field set must get
// that error. Each record replays into a fresh store, so the arms are
// checked independently.
func TestReplayCoversEveryRecord(t *testing.T) {
	isEmpty := func(err error) bool { return err != nil && err.Error() == "empty record" }
	if err := New().replay([]byte(`{}`)); !isEmpty(err) {
		t.Fatalf("replay of a record with no field = %v, want the empty-record error", err)
	}
	rt := reflect.TypeOf(walRecord{})
	for i := range rt.NumField() {
		f := rt.Field(i)
		if !f.IsExported() || f.Type.Kind() != reflect.Pointer {
			continue
		}
		var rec walRecord
		reflect.ValueOf(&rec).Elem().Field(i).Set(reflect.New(f.Type.Elem()))
		data, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		if err := New().replay(data); isEmpty(err) {
			t.Errorf("replay drops a %s record as empty: %s", f.Name, data)
		}
	}
}

// TestRecoverRejectsOutOfRangeMigration pins that a CRC-valid journal
// whose migration records do not fit the store's fixed instance-shard
// fan-out fails Open with an error instead of panicking when the fold
// indexes the job's shard checkpoint.
func TestRecoverRejectsOutOfRangeMigration(t *testing.T) {
	const jobID = "mig-c-1"
	create := walRecord{Create: &recCreate{ID: "c"}}
	job := func(shards int) walRecord {
		return walRecord{MigJob: &recMigJob{Job: jobID, ID: "c", Version: 1, Shards: shards}}
	}
	fold := func(shard int) walRecord { return walRecord{MigShard: &recMigShard{Job: jobID, Shard: shard}} }
	for _, tc := range []struct {
		name     string
		snapshot *persistedStore
		recs     []walRecord
	}{
		{name: "shard past the fan-out", recs: []walRecord{create, job(instShardCount), fold(instShardCount)}},
		{name: "negative shard", recs: []walRecord{create, job(instShardCount), fold(-1)}},
		{name: "job shard count", recs: []walRecord{create, job(instShardCount + 1), fold(instShardCount)}},
		{
			name:     "checkpointed job shard count",
			snapshot: &persistedStore{Jobs: []migrate.JobState{{ID: jobID, Choreography: "c", Done: make([]bool, 3)}}},
			recs:     []walRecord{fold(3)},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			jnl, _, _, err := journal.Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			if tc.snapshot != nil {
				data, err := json.Marshal(tc.snapshot)
				if err != nil {
					t.Fatal(err)
				}
				if err := jnl.Checkpoint(data); err != nil {
					t.Fatal(err)
				}
			}
			for _, rec := range tc.recs {
				data, err := json.Marshal(rec)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := jnl.Append(data); err != nil {
					t.Fatal(err)
				}
			}
			if err := jnl.Close(); err != nil {
				t.Fatal(err)
			}
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("Open panicked: %v", r)
				}
			}()
			s, err := Open(WithJournal(dir))
			if err == nil {
				s.Close()
				t.Fatal("Open recovered the journal; want an out-of-range error")
			}
		})
	}
}

// TestTornInstanceRecordDiscarded is the focused torn-tail test of
// the acceptance criteria: the final record is physically truncated
// mid-payload, and recovery must come back without it — not fail.
func TestTornInstanceRecordDiscarded(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(WithJournal(dir))
	if err != nil {
		t.Fatal(err)
	}
	seedPaperScenario(t, s)
	before := s.jnl.WALSize()
	if _, err := s.SampleInstances(ctx, "procurement", paperrepro.Buyer, 99, 5, 8); err != nil {
		t.Fatal(err)
	}
	recs, err := s.InstanceRecords(ctx, "procurement", paperrepro.Buyer)
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	// Tear the last record: cut half of its bytes.
	walPath := filepath.Join(dir, "wal.log")
	full, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(walPath, before+(int64(len(full))-before)/2); err != nil {
		t.Fatal(err)
	}
	recovered, err := Open(WithJournal(dir))
	if err != nil {
		t.Fatalf("torn tail must not be fatal: %v", err)
	}
	defer recovered.Close()
	rrecs, err := recovered.InstanceRecords(ctx, "procurement", paperrepro.Buyer)
	if err != nil {
		t.Fatal(err)
	}
	if want := len(recs) - 5; len(rrecs) != want {
		t.Fatalf("recovered %d buyer instances, want %d (torn record dropped)", len(rrecs), want)
	}
}

// TestCheckpointRequiresJournal pins the in-memory error.
func TestCheckpointRequiresJournal(t *testing.T) {
	s := New()
	if _, err := s.Checkpoint(ctx); !errors.Is(err, ErrInvalid) {
		t.Fatalf("Checkpoint on in-memory store = %v, want ErrInvalid", err)
	}
}

// TestNewPanicsOnJournal pins that the error-less constructor refuses
// the fallible option.
func TestNewPanicsOnJournal(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(WithJournal) did not panic")
		}
	}()
	New(WithJournal(t.TempDir()))
}

// ingestWave feeds one deterministic interleaved mix of streaming
// events and batch-recorded instances into st's procurement
// choreography. Waves build on each other: wave 2 reuses wave 1's
// instance IDs, so its events extend traces that — after a crash —
// exist only as recovered WAL facts, forcing live-state rebuilds.
func ingestWave(t *testing.T, st *Store, wave int) {
	t.Helper()
	snap, err := st.Snapshot(ctx, "procurement")
	if err != nil {
		t.Fatal(err)
	}
	for pi, party := range []string{paperrepro.Buyer, paperrepro.Accounting, paperrepro.Logistics} {
		ps, ok := snap.Party(party)
		if !ok {
			t.Fatalf("party %s missing", party)
		}
		insts := instance.SampleInstances(ps.Public, int64(wave*100+pi), 6, 8)
		for i := range insts {
			// Stable across waves: wave 2 appends to wave 1's records.
			insts[i].ID = fmt.Sprintf("st-%d", i)
		}
		// One deviator per party per wave: a valid first message, then a
		// label no interner has ever produced.
		insts = append(insts, instance.Instance{
			ID:    fmt.Sprintf("dev-%d", wave),
			Trace: []label.Label{"B#A#orderOp", label.Label(fmt.Sprintf("%s#Z#bogus%dOp", party, wave))},
		})
		var stream []ingest.Event
		for pos := 0; ; pos++ {
			progressed := false
			for _, inst := range insts {
				if pos < len(inst.Trace) {
					stream = append(stream, ingest.Event{Party: party, Instance: inst.ID, Label: inst.Trace[pos]})
					progressed = true
				}
			}
			if !progressed {
				break
			}
		}
		// Interleave event batches with AddInstances so recEvents and
		// instance records land mixed in the WAL, sharing the
		// per-entry append-lock ordering.
		for batch := 0; len(stream) > 0; batch++ {
			n := 7
			if n > len(stream) {
				n = len(stream)
			}
			if _, err := st.IngestEvents(ctx, "procurement", stream[:n]); err != nil {
				t.Fatalf("wave %d ingest %s: %v", wave, party, err)
			}
			stream = stream[n:]
			if batch%3 == 0 {
				adds := []instance.Instance{{ID: fmt.Sprintf("add-w%d-%s-%d", wave, party, batch)}}
				if err := st.AddInstances(ctx, "procurement", party, adds); err != nil {
					t.Fatalf("wave %d add %s: %v", wave, party, err)
				}
			}
		}
	}
}

// TestRecoverIngestInterleavedWithAddInstances pins the WAL ordering of
// streaming event records against batch instance records: a store fed
// an interleaved mix is killed without a handshake, and the recovered
// store must match exactly — shard slots, traces, schema tags. It then
// pins that recovery is not a dead end: the recovered store resumes
// ingestion, and its per-instance streaming state stays identical to a
// mirror that never crashed.
func TestRecoverIngestInterleavedWithAddInstances(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(WithJournal(dir), WithShards(4))
	if err != nil {
		t.Fatal(err)
	}
	mirror := New(WithShards(4))
	for _, st := range []*Store{s, mirror} {
		seedPaperScenario(t, st)
		ingestWave(t, st, 1)
	}
	// Kill: no Checkpoint, no Close. Only the journal survives.
	recovered, err := Open(WithJournal(dir), WithShards(4))
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	defer recovered.Close()
	assertStoresEqual(t, s, recovered)

	// Resume ingestion on the recovered store; the never-killed mirror
	// runs the identical wave as the reference.
	ingestWave(t, mirror, 2)
	ingestWave(t, recovered, 2)
	assertStoresEqual(t, mirror, recovered)
	for _, party := range []string{paperrepro.Buyer, paperrepro.Accounting, paperrepro.Logistics} {
		want, err := mirror.InstanceStates(ctx, "procurement", party)
		if err != nil {
			t.Fatal(err)
		}
		got, err := recovered.InstanceStates(ctx, "procurement", party)
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("%s: resumed instance states differ:\n got %v\nwant %v", party, got, want)
		}
	}
}

// TestInstanceRecordingOrderSurvives pins the ref-stability invariant
// directly: instances recorded for several parties land in identical
// shard slots after recovery, so the refs of a half-done job stay
// valid.
func TestInstanceRecordingOrderSurvives(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(WithJournal(dir))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Create(ctx, "c", nil); err != nil {
		t.Fatal(err)
	}
	conv, err := gen.Generate(5, gen.Params{PartyA: "A", PartyB: "B", Messages: 5, MaxDepth: 2, ChoiceProb: 25, MaxBranch: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.PutParties(ctx, "c", []*bpel.Process{conv.A, conv.B}, nil); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		party := "A"
		if i%3 == 0 {
			party = "B"
		}
		if err := s.AddInstances(ctx, "c", party, []instance.Instance{{ID: fmt.Sprintf("i-%02d", i)}}); err != nil {
			t.Fatal(err)
		}
	}
	recovered, err := Open(WithJournal(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer recovered.Close()
	we, _ := s.entry("c")
	ge, _ := recovered.entry("c")
	if fmt.Sprint(instLayout(we)) != fmt.Sprint(instLayout(ge)) {
		t.Fatal("instance shard layout changed across recovery")
	}
	s.Close()
}

// TestOversizedRecordAppliesNothing records an instance whose journal
// record exceeds journal.MaxRecordBytes. Recovery would discard that
// frame as a torn tail, and every record after it, so the recording
// must fail with journal.ErrTooLarge, apply nothing and leave the store
// writable, and a later acknowledged mutation must survive a reopen.
// SampleInstances(ctx, id, "buyer", 1, 700000, 20) builds such a record
// on the paper choreography; one trace of a repeated 1 KiB label builds
// it without 700,000 instances in memory.
func TestOversizedRecordAppliesNothing(t *testing.T) {
	if testing.Short() {
		t.Skip("encodes a 64 MiB journal record")
	}
	dir := t.TempDir()
	s, err := Open(WithJournal(dir))
	if err != nil {
		t.Fatal(err)
	}
	const id = "procurement"
	if err := s.Create(ctx, id, paperSyncOps); err != nil {
		t.Fatal(err)
	}
	if _, err := s.PutParties(ctx, id, []*bpel.Process{paperrepro.BuyerProcess()}, nil); err != nil {
		t.Fatal(err)
	}
	long := label.Label(strings.Repeat("x", 1<<10))
	trace := make([]label.Label, journal.MaxRecordBytes/len(long)+1)
	for i := range trace {
		trace[i] = long
	}
	err = s.AddInstances(ctx, id, paperrepro.Buyer, []instance.Instance{{ID: "huge", Trace: trace}})
	if !errors.Is(err, journal.ErrTooLarge) {
		t.Fatalf("AddInstances of a record past MaxRecordBytes: err = %v, want journal.ErrTooLarge", err)
	}
	if insts, _ := s.Instances(ctx, id, paperrepro.Buyer); len(insts) != 0 || s.Degraded() != nil {
		t.Fatalf("refused recording left %d instances, degraded: %v", len(insts), s.Degraded())
	}
	if err := s.Create(ctx, "later", nil); err != nil {
		t.Fatal(err)
	}
	s.Close()

	s2, err := Open(WithJournal(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if _, err := s2.Snapshot(ctx, "later"); err != nil {
		t.Fatalf("acknowledged Create lost on reopen: %v", err)
	}
	if insts, _ := s2.Instances(ctx, id, paperrepro.Buyer); len(insts) != 0 {
		t.Fatalf("reopened store has %d instances, want 0", len(insts))
	}
}
