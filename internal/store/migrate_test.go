package store

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"repro/internal/bpel"
	"repro/internal/change"
	"repro/internal/fault"
	"repro/internal/gen"
	"repro/internal/instance"
	"repro/internal/migrate"
	"repro/internal/paperrepro"
)

// migrationStore loads the paper scenario, records instances for all
// three parties under the initial schema, then commits the tracking
// limit change — the population a bulk sweep has to partition.
func migrationStore(t *testing.T) (*Store, string) {
	t.Helper()
	s, id := paperStore(t)
	for i, party := range []string{paperrepro.Buyer, paperrepro.Accounting, paperrepro.Logistics} {
		if _, err := s.SampleInstances(ctx, id, party, int64(100+i), 40, 12); err != nil {
			t.Fatal(err)
		}
	}
	commitTrackingLimit(t, s, id)
	return s, id
}

// recordPaperPopulation creates the paper scenario as choreography id
// in s and records perParty sampled instances (traces of up to maxLen
// messages) for each party under its first version.
func recordPaperPopulation(t *testing.T, s *Store, id string, perParty, maxLen int) {
	t.Helper()
	if err := s.Create(ctx, id, paperSyncOps); err != nil {
		t.Fatal(err)
	}
	procs := []*bpel.Process{paperrepro.BuyerProcess(), paperrepro.AccountingProcess(), paperrepro.LogisticsProcess()}
	if _, err := s.PutParties(ctx, id, procs, nil); err != nil {
		t.Fatal(err)
	}
	for i, party := range []string{paperrepro.Buyer, paperrepro.Accounting, paperrepro.Logistics} {
		if _, err := s.SampleInstances(ctx, id, party, int64(100+i), perParty, maxLen); err != nil {
			t.Fatal(err)
		}
	}
}

// commitTrackingLimit evolves the accounting party with the paper's
// tracking limit change and commits it.
func commitTrackingLimit(t *testing.T, s *Store, id string) {
	t.Helper()
	evo, err := s.Evolve(ctx, id, paperrepro.Accounting, paperrepro.TrackingLimitChange())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.CommitEvolution(ctx, evo); err != nil {
		t.Fatal(err)
	}
}

type strandedKey struct {
	party, id string
	status    instance.Status
}

// sequentialBaseline classifies every recorded instance one at a time
// through the ad-hoc instance.Check — the per-instance what-if path
// MigrateAll must agree with.
func sequentialBaseline(t *testing.T, s *Store, id string) (migrate.Counts, map[strandedKey]bool) {
	t.Helper()
	snap, err := s.Snapshot(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	var want migrate.Counts
	stranded := map[strandedKey]bool{}
	for _, party := range snap.Parties() {
		ps, _ := snap.Party(party)
		insts, err := s.Instances(ctx, id, party)
		if err != nil {
			t.Fatal(err)
		}
		for _, inst := range insts {
			st, err := instance.Check(inst, ps.Public)
			if err != nil {
				t.Fatal(err)
			}
			want.Total++
			switch st {
			case instance.Migratable:
				want.Migratable++
			case instance.NonReplayable:
				want.NonReplayable++
				stranded[strandedKey{party, inst.ID, st}] = true
			case instance.Unviable:
				want.Unviable++
				stranded[strandedKey{party, inst.ID, st}] = true
			}
		}
	}
	return want, stranded
}

// TestMigrateAllMatchesSequential pins the acceptance criterion: the
// bulk sweep's migratable/stranded partition equals classifying every
// instance sequentially with per-instance what-ifs.
func TestMigrateAllMatchesSequential(t *testing.T) {
	s, id := migrationStore(t)
	want, wantStranded := sequentialBaseline(t, s, id)
	if want.NonReplayable+want.Unviable == 0 {
		t.Fatal("baseline stranded nobody — the subtractive change should strand long trackers")
	}
	if want.Migratable == 0 {
		t.Fatal("baseline migrated nobody")
	}

	job, err := s.MigrateAll(ctx, id, 4)
	if err != nil {
		t.Fatal(err)
	}
	v := job.Snapshot()
	if v.Status != migrate.StatusDone {
		t.Fatalf("status = %v, want done", v.Status)
	}
	if v.Counts != want {
		t.Fatalf("bulk counts = %+v, sequential baseline %+v", v.Counts, want)
	}
	got := job.Stranded()
	if len(got) != len(wantStranded) {
		t.Fatalf("stranded = %d entries, want %d", len(got), len(wantStranded))
	}
	for _, st := range got {
		if !wantStranded[strandedKey{st.Party, st.ID, st.Status}] {
			t.Fatalf("unexpected stranded entry %+v", st)
		}
	}

	// Migratable instances were moved to the target snapshot version,
	// stranded ones stay pinned to the schema they were recorded under
	// — observable through InstanceRecords.
	snap, err := s.Snapshot(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	moved, pinned := 0, 0
	for _, party := range snap.Parties() {
		recs, err := s.InstanceRecords(ctx, id, party)
		if err != nil {
			t.Fatal(err)
		}
		for _, rec := range recs {
			if rec.Schema == v.TargetVersion {
				moved++
			} else {
				pinned++
				if !wantStranded[strandedKey{party, rec.Inst.ID, instance.NonReplayable}] &&
					!wantStranded[strandedKey{party, rec.Inst.ID, instance.Unviable}] {
					t.Fatalf("instance %s/%s pinned to v%d but not stranded", party, rec.Inst.ID, rec.Schema)
				}
			}
		}
	}
	if moved != want.Migratable || pinned != want.NonReplayable+want.Unviable {
		t.Fatalf("schema tags: moved=%d pinned=%d, want %d/%d",
			moved, pinned, want.Migratable, want.NonReplayable+want.Unviable)
	}
}

// TestMigrateAllRerunNoop: the job identity is (choreography, version),
// so starting the same migration again returns the finished job as-is.
func TestMigrateAllRerunNoop(t *testing.T) {
	s, id := migrationStore(t)
	job1, err := s.MigrateAll(ctx, id, 2)
	if err != nil {
		t.Fatal(err)
	}
	first := job1.Snapshot()
	job2, err := s.MigrateAll(ctx, id, 8)
	if err != nil {
		t.Fatal(err)
	}
	if job1 != job2 {
		t.Fatalf("rerun created a new job %q, want the completed %q", job2.ID, job1.ID)
	}
	if second := job2.Snapshot(); second != first {
		t.Fatalf("rerun changed the job: %+v -> %+v", first, second)
	}
	// The async variant joins the same job too.
	job3, err := s.StartMigration(ctx, id, 2)
	if err != nil {
		t.Fatal(err)
	}
	if job3 != job1 {
		t.Fatal("StartMigration minted a fresh job for a completed migration")
	}
}

// TestMigrateAllCancelResume: a canceled sweep keeps only whole
// committed shards and the next call finishes the rest; the final
// report equals the sequential baseline.
func TestMigrateAllCancelResume(t *testing.T) {
	s, id := migrationStore(t)
	want, _ := sequentialBaseline(t, s, id)

	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	job, err := s.MigrateAll(canceled, id, 4)
	if err == nil {
		t.Fatal("MigrateAll under a canceled context succeeded")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error = %v, want context.Canceled", err)
	}
	if v := job.Snapshot(); v.Status != migrate.StatusCanceled {
		t.Fatalf("status = %v, want canceled", v.Status)
	}

	resumed, err := s.MigrateAll(ctx, id, 4)
	if err != nil {
		t.Fatal(err)
	}
	if resumed != job {
		t.Fatal("resume minted a fresh job instead of continuing the canceled one")
	}
	if v := resumed.Snapshot(); v.Status != migrate.StatusDone || v.Counts != want {
		t.Fatalf("after resume: %+v, want done with %+v", v, want)
	}
}

// TestMigrateAllStableUnderConcurrentEvolves: evolves and commits on
// other choreographies must not perturb a sweep's stranded report
// (run with -race in CI).
func TestMigrateAllStableUnderConcurrentEvolves(t *testing.T) {
	s, id := migrationStore(t)
	want, wantStranded := sequentialBaseline(t, s, id)

	// An unrelated churning choreography in the same store.
	conv, err := gen.Generate(1, gen.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	const noisy = "noisy"
	if err := s.Create(ctx, noisy, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := s.RegisterParty(ctx, noisy, conv.A); err != nil {
		t.Fatal(err)
	}
	if _, err := s.RegisterParty(ctx, noisy, conv.B); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			evo, err := s.Evolve(ctx, noisy, conv.A.Owner, change.Replace{Path: nil, New: conv.A.Body})
			if err != nil {
				t.Error(err)
				return
			}
			if _, err := s.CommitEvolution(ctx, evo); err != nil && !errors.Is(err, ErrConflict) {
				t.Error(err)
				return
			}
		}
	}()

	job, err := s.MigrateAll(ctx, id, 4)
	close(stop)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if v := job.Snapshot(); v.Counts != want {
		t.Fatalf("counts under churn = %+v, want %+v", v.Counts, want)
	}
	for _, st := range job.Stranded() {
		if !wantStranded[strandedKey{st.Party, st.ID, st.Status}] {
			t.Fatalf("unexpected stranded entry under churn: %+v", st)
		}
	}
}

// dropMigrationJob removes a job from the registry so benchmarks can
// force a fresh sweep of an identical population.
func (s *Store) dropMigrationJob(jobID string) {
	s.migMu.Lock()
	delete(s.migs, jobID)
	for i, got := range s.migOrder {
		if got == jobID {
			s.migOrder = append(s.migOrder[:i], s.migOrder[i+1:]...)
			break
		}
	}
	s.migMu.Unlock()
}

// BenchmarkMigrateAll sweeps a 10k-instance population; the sub-
// benchmarks vary the worker count, and on multi-core hardware the
// sweep time shrinks accordingly (shards are independent: each is
// classified under its own lock against shared immutable checkers).
func BenchmarkMigrateAll(b *testing.B) {
	s := genStore(b, 1, benchParams)
	id := genID(0)
	snap, err := s.Snapshot(ctx, id)
	if err != nil {
		b.Fatal(err)
	}
	for i, party := range snap.Parties() {
		if _, err := s.SampleInstances(ctx, id, party, int64(i+1), 5000, 40); err != nil {
			b.Fatal(err)
		}
	}
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				job, err := s.MigrateAll(ctx, id, workers)
				if err != nil {
					b.Fatal(err)
				}
				if v := job.Snapshot(); v.Total != 10000 {
					b.Fatalf("swept %d instances, want 10000", v.Total)
				}
				b.StopTimer()
				s.dropMigrationJob(job.ID)
				b.StartTimer()
			}
		})
	}
}

// TestCommitNeverDowngradesSchema: a slow sweep targeting an older
// snapshot must not move records backward past the version a newer
// sweep (or a post-commit recording) already tagged them with.
func TestCommitNeverDowngradesSchema(t *testing.T) {
	s, id := paperStore(t)
	for i, party := range []string{paperrepro.Buyer, paperrepro.Accounting, paperrepro.Logistics} {
		if _, err := s.SampleInstances(ctx, id, party, int64(100+i), 40, 12); err != nil {
			t.Fatal(err)
		}
	}
	e, err := s.entry(id)
	if err != nil {
		t.Fatal(err)
	}
	stale := e.snap.Load()
	commitTrackingLimit(t, s, id)
	job, err := s.MigrateAll(ctx, id, 2)
	if err != nil {
		t.Fatal(err)
	}
	snap := e.snap.Load()
	// A stale sweep, as run by a job started before the last commit,
	// sweeps every shard toward the old snapshot — under which every
	// sampled instance is migratable.
	staleJob := migrate.NewJob(migrationJobID(id, stale.Version), id, stale.Version, instShardCount)
	for shard := 0; shard < instShardCount; shard++ {
		if _, _, err := s.sweepShard(ctx, e, stale, staleJob, shard); err != nil {
			t.Fatal(err)
		}
	}
	if v := staleJob.Snapshot(); v.Migratable != v.Total || v.ShardsDone != instShardCount {
		t.Fatalf("stale sweep = %+v, want every instance migratable and every shard done", v)
	}
	moved := 0
	for _, party := range snap.order {
		recs, err := s.InstanceRecords(ctx, id, party)
		if err != nil {
			t.Fatal(err)
		}
		for _, rec := range recs {
			if rec.Schema == snap.Version {
				moved++
			}
		}
	}
	if want := job.Snapshot().Migratable; moved != want {
		t.Fatalf("stale sweep downgraded tags: %d at current version, want %d", moved, want)
	}
}

// schemaTags lists every record's schema tag in shard-scan order.
func schemaTags(t *testing.T, s *Store, id string) []uint64 {
	t.Helper()
	snap, err := s.Snapshot(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	var tags []uint64
	for _, party := range snap.Parties() {
		recs, err := s.InstanceRecords(ctx, id, party)
		if err != nil {
			t.Fatal(err)
		}
		for _, rec := range recs {
			tags = append(tags, rec.Schema)
		}
	}
	return tags
}

// TestMigrateAllFailedAppendAppliesNothing: a shard whose migShard
// append fails advances no tag and folds nothing; the job fails in a
// retryable way, and the retry completes it exactly.
func TestMigrateAllFailedAppendAppliesNothing(t *testing.T) {
	s, err := Open(WithJournal(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	seedPaperScenario(t, s)
	const id = "procurement"
	want, _ := sequentialBaseline(t, s, id)
	before := schemaTags(t, s, id)
	// The job's migJob record is the first append, the first shard's
	// record (one worker: shard 0) the second.
	if err := fault.Arm(fault.PointJournalAppendWrite, fault.Trigger{Nth: 2}); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fault.DisarmAll)
	job, err := s.MigrateAll(ctx, id, 1)
	if !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("MigrateAll under a failing append = %v, want the injected fault", err)
	}
	if v := job.Snapshot(); v.Status != migrate.StatusFailed || v.ShardsDone != 0 || v.Total != 0 {
		t.Fatalf("job after the failed append = %+v, want failed with nothing folded", v)
	}
	if got := schemaTags(t, s, id); fmt.Sprint(got) != fmt.Sprint(before) {
		t.Fatal("a failed shard append advanced schema tags")
	}
	if s.Degraded() != nil {
		t.Fatal("a rolled-back append degraded the store")
	}
	fault.DisarmAll()
	again, err := s.MigrateAll(ctx, id, 1)
	if err != nil {
		t.Fatal(err)
	}
	if again != job {
		t.Fatal("retry minted a fresh job instead of resuming the failed one")
	}
	if v := again.Snapshot(); v.Status != migrate.StatusDone || v.Counts != want {
		t.Fatalf("after retry: %+v, want done with %+v", v, want)
	}
}

// TestMigrateAllAllocsFlat pins that a sweep keeps no per-instance
// state: on an all-migratable population, whose every tag advances
// each run, the allocations of one MigrateAll do not grow with the
// number of instances.
func TestMigrateAllAllocsFlat(t *testing.T) {
	allocs := func(perParty int) float64 {
		s, err := Open(WithJournal(t.TempDir()))
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		const id = "procurement"
		recordPaperPopulation(t, s, id, perParty, 12)
		e, err := s.entry(id)
		if err != nil {
			t.Fatal(err)
		}
		var job *migrate.Job
		n := testing.AllocsPerRun(5, func() {
			// Untag every record and forget the job, so each run sweeps
			// afresh and advances every tag; neither step allocates.
			for i := range e.inst {
				sh := &e.inst[i]
				sh.mu.Lock()
				for _, recs := range sh.recs {
					for _, r := range recs {
						r.schema = 0
					}
				}
				sh.mu.Unlock()
			}
			if job != nil {
				s.dropMigrationJob(job.ID)
			}
			if job, err = s.MigrateAll(ctx, id, 1); err != nil {
				t.Fatal(err)
			}
		})
		if v := job.Snapshot(); v.Total != 3*perParty || v.Migratable != v.Total {
			t.Fatalf("swept %+v, want %d instances, all migratable", v.Counts, 3*perParty)
		}
		return n
	}
	small, large := allocs(667), allocs(3334)
	t.Logf("allocs per sweep: %.0f at 2k instances, %.0f at 10k", small, large)
	// The slack absorbs refills of the pooled encode buffers (encBufs,
	// 2 allocations each): a collection empties the pool, and a worker
	// that moves to another P misses the buffer the last one cached.
	// Any per-instance allocation adds thousands.
	if large > small+8 {
		t.Fatalf("allocs per sweep grew with the population: %.0f at 2k instances, %.0f at 10k", small, large)
	}
}

// blockingSource parks every Load until released — a sweep that stays
// genuinely running for as long as a test needs it to.
type blockingSource struct{ release chan struct{} }

func (b blockingSource) Shards() int { return 1 }

func (b blockingSource) Load(ctx context.Context, shard int) ([]migrate.Item, error) {
	select {
	case <-b.release:
		return nil, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

func (b blockingSource) Commit(context.Context, int, []migrate.Item) error { return nil }

// TestRetentionNeverEvictsRunningJobs is the regression test for the
// migration-job retention bound: with the job table far past
// maxMigrationJobs, eviction must drop only terminal jobs — a job
// whose sweep is still in flight stays, even when it is the oldest
// entry in the table.
func TestRetentionNeverEvictsRunningJobs(t *testing.T) {
	s := New()
	release := make(chan struct{})
	classify := func(string, instance.Instance) (instance.Status, error) {
		return instance.Migratable, nil
	}
	eng := &migrate.Engine{Workers: 1}
	var running []*migrate.Job
	// The running jobs are the OLDEST entries: eviction walks the
	// table in creation order, so any bug that drops the oldest job
	// unconditionally hits them first.
	for i := 0; i < 5; i++ {
		job := migrate.NewJob(fmt.Sprintf("mig-run-%d", i), "c", 1, 1)
		eng.RunAsync(job, blockingSource{release: release}, classify)
		s.migs[job.ID] = job
		s.migOrder = append(s.migOrder, job.ID)
		running = append(running, job)
	}
	for i := 0; i < 2*maxMigrationJobs; i++ {
		job := migrate.RestoreJob(migrate.JobState{
			ID: fmt.Sprintf("mig-done-%03d", i), Choreography: "c",
			Status: migrate.StatusCanceled, Done: make([]bool, 1),
		})
		s.migs[job.ID] = job
		s.migOrder = append(s.migOrder, job.ID)
	}
	s.migMu.Lock()
	s.evictMigrationJobsLocked()
	kept := len(s.migOrder)
	s.migMu.Unlock()
	if kept != maxMigrationJobs {
		t.Fatalf("retained %d jobs, want %d", kept, maxMigrationJobs)
	}
	s.migMu.Lock()
	for _, job := range running {
		if _, ok := s.migs[job.ID]; !ok {
			t.Errorf("running job %s was evicted", job.ID)
		}
	}
	s.migMu.Unlock()
	close(release)
	for _, job := range running {
		if v, err := job.Wait(ctx); err != nil || v.Status != migrate.StatusDone {
			t.Fatalf("job %s did not finish cleanly: %v %v", job.ID, v.Status, err)
		}
	}
}

// TestRetentionKeepsEverythingWhenAllRunning pins the overflow
// behavior when nothing is evictable: the bound yields rather than
// dropping live jobs.
func TestRetentionKeepsEverythingWhenAllRunning(t *testing.T) {
	s := New()
	n := maxMigrationJobs + 10
	for i := 0; i < n; i++ {
		// A fresh job is StatusRunning until its first sweep settles —
		// not terminal, therefore not evictable.
		job := migrate.NewJob(fmt.Sprintf("mig-%03d", i), "c", 1, 1)
		s.migs[job.ID] = job
		s.migOrder = append(s.migOrder, job.ID)
	}
	s.migMu.Lock()
	s.evictMigrationJobsLocked()
	kept := len(s.migOrder)
	s.migMu.Unlock()
	if kept != n {
		t.Fatalf("evicted non-terminal jobs: retained %d, want %d", kept, n)
	}
}
