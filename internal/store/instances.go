package store

import (
	"context"
	"fmt"
	"hash/fnv"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/afsa"
	"repro/internal/instance"
	"repro/internal/label"
	"repro/internal/migrate"
)

// Instance storage. Running conversations are runtime data,
// deliberately outside the schema snapshots: recording an instance
// must not publish a new snapshot or invalidate any consistency
// result. Each choreography's instances are partitioned over
// instShardCount independently locked shards keyed by
// hash(party, instance id), so a bulk-migration sweep never holds a
// choreography-wide lock — it drains one shard at a time while
// recording, checking and evolving continue on the rest.

// instShardCount fixes the instance-shard fan-out per choreography. 64
// shards keep per-shard critical sections tiny and give a worker pool
// enough independent units to scale on (a 10k-instance population is
// ~156 instances per shard).
const instShardCount = 64

// instRecord is one tracked instance. schema is the choreography
// snapshot version the instance currently complies with: the version
// current when it was recorded, advanced by every bulk migration (or
// streaming online migration) that classified it migratable. Records
// are addressed by pointer, so a commit tags them in place regardless
// of concurrent appends.
type instRecord struct {
	id string
	// trace is the message sequence as symbols of the choreography's
	// shared interner, e.snap.Load().syms: that interner is fixed per
	// entry (newEntry or restoreChoreo creates it, Snapshot.clone
	// shares it), so every replay steps with StepSym and hashes no
	// label. A label the interner did not hold when its message was
	// recorded stays text in foreign, named by a negative symbol
	// (foreignSym: -1-i names foreign[i]); replay steps it through the
	// checker's own label map, so a later commit that introduces the
	// label still replays it. Recording looks labels up and never
	// interns them: the shared interner holds committed labels only,
	// and every checker's step table is as wide as the interner.
	trace   []label.Symbol
	foreign []label.Label
	schema  uint64
	// ref is the record's index in its party's shard slice — the
	// stable address migration refs and journaled tag advances use.
	// Set at append time; records never move.
	ref int
	// live is the streaming path's derived runtime state (replay state,
	// deviation point); nil until the first ingested event touches the
	// record. It is replaced wholesale under the shard lock, never
	// mutated in place, so a loaded pointer stays consistent. Live
	// state is derived data: it is neither journaled nor checkpointed,
	// and is rebuilt lazily from the trace after recovery or a schema
	// commit (see ingest.go).
	live *instLive
}

// foreignSym is the stored symbol naming foreign[i].
func foreignSym(i int) label.Symbol { return -1 - label.Symbol(i) }

// appendMsg records one message that syms resolved to sym.
func (r *instRecord) appendMsg(sym label.Symbol, l label.Label) {
	if sym == symUnknown {
		sym = foreignSym(len(r.foreign))
		r.foreign = append(r.foreign, l)
	}
	r.trace = append(r.trace, sym)
}

// labeled renders the record with a label trace; names is the
// interner's Labels(), taken under the record's shard lock so that it
// covers every symbol the record holds.
func (r *instRecord) labeled(names []label.Label) instance.Instance {
	inst := instance.Instance{ID: r.id}
	if len(r.trace) > 0 {
		inst.Trace = make([]label.Label, len(r.trace))
		for i, sym := range r.trace {
			if sym < 0 {
				inst.Trace[i] = r.foreign[-1-sym]
			} else {
				inst.Trace[i] = names[sym]
			}
		}
	}
	return inst
}

// replayTrace replays a stored trace through chk from its start state.
// It returns the reached state and the index of the first message the
// checker cannot step (afsa.None and that index, or -1 when the whole
// trace replays). This is every sweep's per-instance kernel;
// TestReplayTraceAllocs pins it at zero allocations.
func replayTrace(chk *instance.Checker, trace []label.Symbol, foreign []label.Label) (afsa.StateID, int) {
	q := chk.Start()
	for i, sym := range trace {
		if sym < 0 {
			q = chk.Step(q, foreign[-1-sym])
		} else {
			q = chk.StepSym(q, sym)
		}
		if q == afsa.None {
			return afsa.None, i
		}
	}
	return q, -1
}

// labelSyms resolves labels to the symbols of a choreography's shared
// interner through a local memo, so a batch takes the interner's read
// lock once per distinct label rather than once per message. A label
// the interner does not hold resolves to symUnknown; it is never
// interned (see instRecord).
type labelSyms struct {
	in   *label.Interner
	memo map[label.Label]label.Symbol
}

func newLabelSyms(in *label.Interner) labelSyms {
	return labelSyms{in: in, memo: map[label.Label]label.Symbol{}}
}

func (ls labelSyms) of(l label.Label) label.Symbol {
	if sym, ok := ls.memo[l]; ok {
		return sym
	}
	sym, ok := ls.in.Lookup(l)
	if !ok {
		sym = symUnknown
	}
	ls.memo[l] = sym
	return sym
}

// instShard is one lockable slice of a choreography's instances,
// grouped by party. Slices are append-only: a record's (party, index)
// position never changes, which is what journaled tag advances rely on.
type instShard struct {
	mu   sync.Mutex
	recs map[string][]*instRecord
	// idx resolves (party, instance id) → the party's FIRST record
	// with that id; the streaming event path appends to that record.
	// Later duplicates recorded through AddInstances never displace
	// the first, keeping the mapping deterministic across replay.
	idx map[instIdxKey]*instRecord
	// n counts the shard's records. appendLocked raises it; Stats
	// reads it without taking mu.
	n atomic.Int64
}

func instShardOf(party, id string) int {
	h := fnv.New32a()
	h.Write([]byte(party))
	h.Write([]byte{0})
	h.Write([]byte(id))
	return int(h.Sum32() % instShardCount)
}

// instIdxKey keys the id index by (party, instance id).
type instIdxKey struct{ party, id string }

// appendLocked appends one record to party's slice, assigning its ref
// and registering it in the id index; the caller holds sh.mu.
func (sh *instShard) appendLocked(party string, rec *instRecord) {
	if sh.recs == nil {
		sh.recs = map[string][]*instRecord{}
	}
	if sh.idx == nil {
		sh.idx = map[instIdxKey]*instRecord{}
	}
	rec.ref = len(sh.recs[party])
	sh.recs[party] = append(sh.recs[party], rec)
	if k := (instIdxKey{party, rec.id}); sh.idx[k] == nil {
		sh.idx[k] = rec
	}
	sh.n.Add(1)
}

// addInstances distributes records over e's instance shards, tagging
// them with the given snapshot version; syms resolves their labels.
func (e *entry) addInstances(party string, insts []instance.Instance, schema uint64, syms labelSyms) {
	for _, inst := range insts {
		r := &instRecord{id: inst.ID, schema: schema, trace: make([]label.Symbol, 0, len(inst.Trace))}
		for _, l := range inst.Trace {
			r.appendMsg(syms.of(l), l)
		}
		sh := &e.inst[instShardOf(party, inst.ID)]
		sh.mu.Lock()
		sh.appendLocked(party, r)
		sh.mu.Unlock()
	}
}

// instancesOf collects party's instances across shards (deterministic
// shard order, not insertion order), with label traces.
func (e *entry) instancesOf(party string) []instance.Instance {
	var out []instance.Instance
	e.eachRecord(party, func(rec *instRecord, names []label.Label) {
		out = append(out, rec.labeled(names))
	})
	return out
}

// eachRecord calls f on party's records in shard order, one shard lock
// at a time; names resolves the records' symbols (see
// instRecord.labeled).
func (e *entry) eachRecord(party string, f func(rec *instRecord, names []label.Label)) {
	syms := e.snap.Load().syms
	for i := range e.inst {
		sh := &e.inst[i]
		sh.mu.Lock()
		if recs := sh.recs[party]; len(recs) > 0 {
			names := syms.Labels()
			for _, rec := range recs {
				f(rec, names)
			}
		}
		sh.mu.Unlock()
	}
}

// AddInstances records running conversations of a party. The records
// are tagged with the current snapshot version — the schema they are
// assumed to comply with until a bulk migration moves them. An empty
// instance ID or an empty (ε) label fails with ErrInvalid, as it does
// on the streaming path; nothing is recorded then.
func (s *Store) AddInstances(ctx context.Context, id, party string, insts []instance.Instance) error {
	if err := ctxErr(ctx); err != nil {
		return err
	}
	release, err := s.beginMutation()
	if err != nil {
		return err
	}
	defer release()
	e, err := s.entry(id)
	if err != nil {
		return err
	}
	snap := e.snap.Load()
	if _, ok := snap.parties[party]; !ok {
		return fmt.Errorf("%w: party %q in choreography %q", ErrNotFound, party, id)
	}
	for _, inst := range insts {
		if inst.ID == "" {
			return fmt.Errorf("%w: instances need an id", ErrInvalid)
		}
		for _, l := range inst.Trace {
			if l == label.Epsilon {
				return fmt.Errorf("%w: instance %q: empty label", ErrInvalid, inst.ID)
			}
		}
	}
	return s.recordInstances(e, party, insts, snap.Version)
}

// SampleInstances draws n seeded random-walk instances of party's
// current public process, records and returns them.
func (s *Store) SampleInstances(ctx context.Context, id, party string, seed int64, n, maxLen int) ([]instance.Instance, error) {
	if err := ctxErr(ctx); err != nil {
		return nil, err
	}
	release, err := s.beginMutation()
	if err != nil {
		return nil, err
	}
	defer release()
	e, err := s.entry(id)
	if err != nil {
		return nil, err
	}
	snap := e.snap.Load()
	ps, ok := snap.parties[party]
	if !ok {
		return nil, fmt.Errorf("%w: party %q in choreography %q", ErrNotFound, party, id)
	}
	insts := instance.SampleInstances(ps.Public, seed, n, maxLen)
	if err := s.recordInstances(e, party, insts, snap.Version); err != nil {
		return nil, err
	}
	return insts, nil
}

// Instances returns the recorded instances of a party (in shard order,
// deterministic for a fixed population).
func (s *Store) Instances(ctx context.Context, id, party string) ([]instance.Instance, error) {
	if err := ctxErr(ctx); err != nil {
		return nil, err
	}
	e, err := s.entry(id)
	if err != nil {
		return nil, err
	}
	return e.instancesOf(party), nil
}

// InstanceRecord is one tracked instance with its migration state.
type InstanceRecord struct {
	Inst instance.Instance
	// Schema is the choreography snapshot version the instance
	// complies with: the version current when it was recorded,
	// advanced by every bulk migration that classified it migratable.
	// Instances whose Schema trails the current snapshot are the
	// stragglers a completed sweep left stranded.
	Schema uint64
}

// InstanceRecords returns the recorded instances of a party together
// with the schema version each one currently complies with (in shard
// order, deterministic for a fixed population).
func (s *Store) InstanceRecords(ctx context.Context, id, party string) ([]InstanceRecord, error) {
	if err := ctxErr(ctx); err != nil {
		return nil, err
	}
	e, err := s.entry(id)
	if err != nil {
		return nil, err
	}
	var out []InstanceRecord
	e.eachRecord(party, func(rec *instRecord, names []label.Label) {
		out = append(out, InstanceRecord{Inst: rec.labeled(names), Schema: rec.schema})
	})
	return out, nil
}

// Migrate classifies the recorded instances of party against candidate
// (ADEPT-style compliance, Sec. 8). A nil candidate means the party's
// current public process — served by the party state's memoized
// compliance checker; passing a pending Evolution's NewPublic answers
// "what would break" before committing. It replays label traces: a
// pending candidate lives on its own interner (see evolveSnapshot), so
// the stored symbols mean nothing to it.
func (s *Store) Migrate(ctx context.Context, id, party string, candidate *afsa.Automaton) (*instance.Report, error) {
	if err := ctxErr(ctx); err != nil {
		return nil, err
	}
	e, err := s.entry(id)
	if err != nil {
		return nil, err
	}
	var chk *instance.Checker
	if candidate == nil {
		ps, ok := e.snap.Load().parties[party]
		if !ok {
			return nil, fmt.Errorf("%w: party %q in choreography %q", ErrNotFound, party, id)
		}
		if chk, err = ps.complianceChecker(); err != nil {
			return nil, err
		}
	} else if chk, err = instance.NewChecker(candidate); err != nil {
		return nil, err
	}
	return instance.MigrateWith(e.instancesOf(party), chk), nil
}

// ---- bulk migration (internal/migrate glue) ----

// maxMigrationJobs bounds the retained job reports; the oldest
// terminal jobs are evicted first (running jobs are never evicted).
const maxMigrationJobs = 256

// sweepShard is the store's migrate.ShardFunc: it sweeps one instance
// shard toward snap for job in a single pass under the shard lock.
// Every record is classified in place by replaying its stored symbols
// (replayTrace) through snap's memoized compliance checkers; the
// shard's outcome — the schema-tag advances
// as runs of refs, plus the job fold — is journaled as one migShard
// record; only then do the tags advance and the shard fold into job.
// Nothing is copied out of the shard, and a failed append applies and
// folds nothing: the job fails retryably with the shard still pending.
//
// Lock order is applyIngest's minus the append lock (a sweep records
// no instances): persistMu.RLock, then the shard lock. The fold
// happens inside both, so a checkpoint sees a shard's record and its
// fold together or neither.
func (s *Store) sweepShard(ctx context.Context, e *entry, snap *Snapshot, job *migrate.Job, shard int) (migrate.Counts, []migrate.Stranded, error) {
	// Build the checkers before taking any lock, as applyIngest's
	// prefetch does: the first sweep after a commit pays the
	// determinization here, not inside the shard critical section.
	for _, party := range snap.order {
		if _, err := snap.parties[party].complianceChecker(); err != nil {
			return migrate.Counts{}, nil, err
		}
	}
	unlock := s.persistRLock()
	defer unlock()
	sh := &e.inst[shard]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	for party := range sh.recs {
		if _, ok := snap.parties[party]; !ok {
			return migrate.Counts{}, nil, fmt.Errorf("%w: party %q in choreography %q", ErrNotFound, party, e.id)
		}
	}

	var t migrate.Tally
	rec := recMigShard{Job: job.ID, Shard: shard, ID: e.id, Target: snap.Version}
	for _, party := range snap.order {
		recs := sh.recs[party]
		if len(recs) == 0 {
			continue
		}
		chk, _ := snap.parties[party].complianceChecker() // memoized above
		tags := tagRuns{Party: party}
		for ref, r := range recs {
			if err := t.Poll(ctx); err != nil {
				return migrate.Counts{}, nil, err
			}
			// Tags only ever advance: a slow sweep toward an older
			// snapshot leaves records a newer sweep (or a post-commit
			// recording) already moved past its target alone.
			q, _ := replayTrace(chk, r.trace, r.foreign)
			if t.Add(party, r.id, chk.StatusAt(q)) && r.schema < snap.Version {
				tags.add(ref)
			}
		}
		if len(tags.Runs) > 0 {
			// Allocated on the first party with tags, so a shard with
			// nothing to advance allocates nothing here.
			if rec.Tags == nil {
				rec.Tags = make([]tagRuns, 0, len(snap.order))
			}
			rec.Tags = append(rec.Tags, tags)
		}
	}
	if err := ctxErr(ctx); err != nil {
		return migrate.Counts{}, nil, err
	}
	rec.Counts, rec.Stranded = t.Counts, t.Stranded
	if err := s.appendMigShardWAL(&rec); err != nil {
		return migrate.Counts{}, nil, err
	}
	if err := rec.advanceTags(sh); err != nil {
		return migrate.Counts{}, nil, err // unreachable: the runs were built from sh
	}
	job.FoldShard(shard, t.Counts, t.Stranded)
	return t.Counts, t.Stranded, nil
}

// migrationJobID derives the deterministic job identity of "sweep
// choreography id to committed version v" — the key that makes
// starting the same migration twice idempotent.
func migrationJobID(id string, version uint64) string {
	return fmt.Sprintf("mig-%s-v%d", id, version)
}

// prepareMigration resolves or creates the job for sweeping id's
// instances to its current snapshot, plus the engine inputs.
func (s *Store) prepareMigration(id string, workers int) (*migrate.Job, *migrate.Engine, migrate.ShardFunc, error) {
	e, err := s.entry(id)
	if err != nil {
		return nil, nil, nil, err
	}
	snap := e.snap.Load()
	jobID := migrationJobID(id, snap.Version)
	unlock := s.persistRLock()
	s.migMu.Lock()
	job, ok := s.migs[jobID]
	if !ok {
		if err := s.appendWAL(&walRecord{MigJob: &recMigJob{
			Job: jobID, ID: id, Version: snap.Version, Shards: instShardCount,
		}}); err != nil {
			s.migMu.Unlock()
			unlock()
			return nil, nil, nil, err
		}
		job = migrate.NewJob(jobID, id, snap.Version, instShardCount)
		s.migs[jobID] = job
		s.migOrder = append(s.migOrder, jobID)
		s.evictMigrationJobsLocked()
	}
	s.migMu.Unlock()
	unlock()

	// The sweep closes over the snapshot the job targets: party states
	// are immutable, so the memoized compliance checkers (determinized
	// automaton + viable set, built once per party version) are shared
	// by every worker and every resume.
	sweep := func(ctx context.Context, shard int) (migrate.Counts, []migrate.Stranded, error) {
		return s.sweepShard(ctx, e, snap, job, shard)
	}
	return job, &migrate.Engine{Workers: workers}, sweep, nil
}

// evictMigrationJobsLocked drops the oldest terminal jobs past the
// retention bound; callers hold migMu.
func (s *Store) evictMigrationJobsLocked() {
	for len(s.migOrder) > maxMigrationJobs {
		evicted := false
		for i, jobID := range s.migOrder {
			if s.migs[jobID].Snapshot().Terminal() {
				delete(s.migs, jobID)
				s.migOrder = append(s.migOrder[:i], s.migOrder[i+1:]...)
				evicted = true
				break
			}
		}
		if !evicted {
			return // everything running; keep them all
		}
	}
}

// MigrateAll sweeps every tracked instance of the choreography —
// all parties — through migratability classification against the
// current committed snapshot, moving migratable instances to it and
// reporting the stranded ones. The sweep runs on a bounded pool of
// workers over the instance shards, one shard lock at a time (see
// sweepShard); no choreography-wide lock is held at any point.
//
// The job is idempotent and resumable: its identity is
// (choreography, snapshot version), calling MigrateAll again for a
// completed job returns the finished report without re-sweeping, and
// canceling mid-sweep (ctx) keeps the committed shards so the next
// call resumes with the remainder. MigrateAll blocks until the sweep
// ends; StartMigration is the non-blocking variant.
func (s *Store) MigrateAll(ctx context.Context, id string, workers int) (*migrate.Job, error) {
	release, err := s.beginMutation()
	if err != nil {
		return nil, err
	}
	defer release()
	job, eng, sweep, err := s.prepareMigration(id, workers)
	if err != nil {
		return nil, err
	}
	if err := eng.RunShards(ctx, job, sweep); err != nil {
		return job, fmt.Errorf("store: migration %s: %w", job.ID, err)
	}
	return job, nil
}

// StartMigration launches (or resumes) the bulk migration of id's
// instances in the background and returns its job immediately; poll
// job.Snapshot, block on job.Wait, or stop it with job.Cancel. Like
// MigrateAll it is idempotent per (choreography, snapshot version).
// The runner role is claimed before returning, so a resumed job is
// never observable in its previous terminal state and an immediate
// Cancel takes effect; the sweep itself outlives the request that
// started it (Cancel, not a request context, is the way to stop it).
func (s *Store) StartMigration(ctx context.Context, id string, workers int) (*migrate.Job, error) {
	if err := ctxErr(ctx); err != nil {
		return nil, err
	}
	release, err := s.beginMutation()
	if err != nil {
		return nil, err
	}
	defer release()
	job, eng, sweep, err := s.prepareMigration(id, workers)
	if err != nil {
		return nil, err
	}
	eng.RunShardsAsync(job, sweep)
	return job, nil
}

// MigrationJob returns one of id's migration jobs.
func (s *Store) MigrationJob(ctx context.Context, id, jobID string) (*migrate.Job, error) {
	if err := ctxErr(ctx); err != nil {
		return nil, err
	}
	if _, err := s.entry(id); err != nil {
		return nil, err
	}
	s.migMu.Lock()
	job, ok := s.migs[jobID]
	s.migMu.Unlock()
	if !ok || job.Choreography != id {
		return nil, fmt.Errorf("%w: migration job %q in choreography %q", ErrNotFound, jobID, id)
	}
	return job, nil
}

// MigrationJobs lists id's migration jobs, sorted by job ID.
func (s *Store) MigrationJobs(ctx context.Context, id string) ([]*migrate.Job, error) {
	if err := ctxErr(ctx); err != nil {
		return nil, err
	}
	if _, err := s.entry(id); err != nil {
		return nil, err
	}
	s.migMu.Lock()
	var out []*migrate.Job
	for _, job := range s.migs {
		if job.Choreography == id {
			out = append(out, job)
		}
	}
	s.migMu.Unlock()
	sort.Slice(out, func(a, b int) bool { return out[a].ID < out[b].ID })
	return out, nil
}
