package store

// Persistence: the glue between the in-memory sharded store and the
// internal/journal write-ahead log.
//
// Mutations are journaled, derived state is not. Every record carries
// only what a deterministic replay needs — private processes as BPEL
// XML, instance traces, migration-job lifecycle events — and the
// recovery path re-derives public automata, bilateral views, pair
// caches and registries exactly like the live commit path does,
// re-interning each choreography's labels into one fresh shared
// symbol space. A recovered store is therefore structurally identical
// to the pre-crash store: same snapshot versions, same party
// versions, same instance records and schema tags (in the same shard
// slots, so migration refs stay valid), same job states.
//
// Write protocol. Journaled mutators append the record and apply the
// mutation while holding persistMu.RLock, and hold whatever lock
// serializes same-key mutations (the shard map lock for
// create/delete, the per-choreography commit lock for commits, the
// per-entry instance-append lock for instance recording, migMu for
// job creation) across both steps, so the WAL order of records for
// one key always matches the in-memory apply order. Checkpoint takes
// persistMu.Lock, which quiesces every journaled mutation: the
// serialized state corresponds exactly to the journal's last LSN, and
// the journal truncates the WAL knowing the snapshot covers it.
//
// Lock order around persistMu: commitMu and instAppendMu sit OUTSIDE
// it (taken first; Checkpoint never touches either), every other
// store lock (shard maps, instance shards, migMu, job locks) sits
// INSIDE it (persistMu first). Violating either direction can
// deadlock a checkpoint against a mutator. Race builds panic on a
// goroutine that takes commitMu or instAppendMu inside persistMu
// (lockrank.go). The store's own code blocks only on its locks and in
// internal/journal (TestStoreBlocksOnlyInJournal); its calls into
// other packages under a lock are not checked for blocking.
//
// Failure protocol. If an append fails, the mutation is not applied
// and the caller gets the error — the store never holds state the
// journal missed. This holds for migration sweeps too: a shard's tag
// advances and its job fold share one record, so a failed append
// leaves the shard untagged and pending, and the job fails retryably.

import (
	"context"
	"encoding/json"
	"fmt"
	"sort"

	"repro/internal/bpel"
	"repro/internal/instance"
	"repro/internal/journal"
	"repro/internal/label"
	"repro/internal/mapping"
	"repro/internal/migrate"
)

// WithJournal makes the store durable: every mutation is appended to
// a write-ahead log in dir before it is applied, and Open recovers
// the previous state from dir (snapshot plus log tail) at
// construction. Use store.Open with this option — store.New panics on
// it, because recovery can fail.
func WithJournal(dir string) Option {
	return func(s *Store) { s.journalDir = dir }
}

// WithJournalFsync additionally fsyncs the log on every append:
// mutations then survive kernel crashes and power loss, not just
// process kills, at a significant per-commit latency cost. No effect
// without WithJournal.
func WithJournalFsync() Option {
	return func(s *Store) { s.journalFsync = true }
}

// Open returns a store configured by opts, recovering prior state
// from the journal directory when WithJournal is among them. Without
// WithJournal it is equivalent to New.
func Open(opts ...Option) (*Store, error) {
	s := newStore(opts...)
	if s.journalDir == "" {
		return s, nil
	}
	jnl, snap, tail, err := journal.Open(s.journalDir, journal.WithFsync(s.journalFsync))
	if err != nil {
		return nil, err
	}
	if snap != nil {
		if err := s.restoreSnapshot(snap); err != nil {
			jnl.Close()
			return nil, err
		}
	}
	for _, rec := range tail {
		if err := s.replay(rec.Data); err != nil {
			jnl.Close()
			return nil, fmt.Errorf("store: replaying journal record %d: %w", rec.LSN, err)
		}
	}
	// Journaling starts only now: the replay above must never
	// re-append the records it is applying.
	s.jnl = jnl
	return s, nil
}

// Close drains the store and releases the journal. New mutations fail
// with ErrClosed from the moment Close is entered; then every
// migration sweep is canceled and awaited and every choreography's
// event engine is shut down (failing still-queued ingest submissions
// with ingest.ErrClosed, applying already-claimed batches) — both
// append journal records from background goroutines, so both must be
// quiet before the journal closes underneath them. Close does not
// checkpoint — pair it with Checkpoint for a clean shutdown, or skip
// the checkpoint and let the next Open replay the log. It is
// idempotent; only the first call does the work.
func (s *Store) Close() error {
	s.closeMu.Lock()
	if s.closed {
		s.closeMu.Unlock()
		return nil
	}
	s.closed = true
	s.closeMu.Unlock()
	// The Lock/Unlock above is a barrier: every admitted mutator has
	// released the gate, so the migration-job set is final and no new
	// ingest engine can appear — one cancel+wait round drains for good.
	s.migMu.Lock()
	jobs := make([]*migrate.Job, 0, len(s.migs))
	for _, job := range s.migs {
		jobs = append(jobs, job)
	}
	s.migMu.Unlock()
	for _, job := range jobs {
		job.Cancel()
	}
	for _, job := range jobs {
		_, _ = job.Wait(context.Background())
	}
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		es := make([]*entry, 0, len(sh.entries))
		for _, e := range sh.entries {
			es = append(es, e)
		}
		sh.mu.RUnlock()
		for _, e := range es {
			e.closeIngest()
		}
	}
	if s.jnl == nil {
		return nil
	}
	return s.jnl.Close()
}

// CheckpointInfo describes a completed checkpoint.
type CheckpointInfo struct {
	// LSN is the last journaled mutation the snapshot covers.
	LSN uint64
	// Bytes is the size of the serialized snapshot.
	Bytes int
}

// Checkpoint serializes the entire store state into the journal's
// snapshot file and truncates the write-ahead log — compaction: the
// next recovery loads one snapshot instead of replaying the full
// mutation history. Journaled mutations are quiesced for the
// duration; reads proceed untouched. It fails with ErrInvalid on a
// store without a journal.
func (s *Store) Checkpoint(ctx context.Context) (CheckpointInfo, error) {
	if s.jnl == nil {
		return CheckpointInfo{}, fmt.Errorf("%w: store has no journal", ErrInvalid)
	}
	if err := ctxErr(ctx); err != nil {
		return CheckpointInfo{}, err
	}
	release, err := s.beginMutation()
	if err != nil {
		return CheckpointInfo{}, err
	}
	defer release()
	s.persistMu.Lock()
	defer s.persistMu.Unlock()
	data, err := s.serialize()
	if err != nil {
		return CheckpointInfo{}, err
	}
	if err := s.jnl.Checkpoint(data); err != nil {
		return CheckpointInfo{}, fmt.Errorf("store: %w", err)
	}
	return CheckpointInfo{LSN: s.jnl.LSN(), Bytes: len(data)}, nil
}

// ---- record encoding ----

// walRecord is the journal's record envelope: exactly one field set.
// Adding a record type without teaching replay about it must fail a
// test, not silently drop a mutation on the next recovery:
// TestReplayCoversEveryRecord replays each field on its own and
// requires replay's switch to dispatch it, and a record with no field
// to reach the empty-record error.
type walRecord struct {
	Create    *recCreate    `json:"create,omitempty"`
	Delete    *recDelete    `json:"delete,omitempty"`
	Commit    *recCommit    `json:"commit,omitempty"`
	Instances *recInstances `json:"instances,omitempty"`
	Events    *recEvents    `json:"events,omitempty"`
	MigJob    *recMigJob    `json:"migJob,omitempty"`
	MigTags   *recMigTags   `json:"migTags,omitempty"`
	MigShard  *recMigShard  `json:"migShard,omitempty"`
	Idem      *recIdem      `json:"idem,omitempty"`
}

// recCreate journals Create.
type recCreate struct {
	ID      string   `json:"id"`
	SyncOps []string `json:"syncOps,omitempty"`
}

// recDelete journals Delete.
type recDelete struct {
	ID string `json:"id"`
}

// recCommit journals one published snapshot: the private processes of
// the touched parties (the untouched ones are shared with the prior
// snapshot and re-derive from earlier records) and the resulting
// version, which replay verifies.
type recCommit struct {
	ID      string   `json:"id"`
	Version uint64   `json:"version"`
	XMLs    []string `json:"xmls"`
}

// recInstances journals recorded instances with the schema tag they
// were recorded under.
type recInstances struct {
	ID     string          `json:"id"`
	Party  string          `json:"party"`
	Schema uint64          `json:"schema"`
	Insts  []persistedInst `json:"insts"`
}

// recEvent is one ingested message within a recEvents batch.
type recEvent struct {
	Party string      `json:"party"`
	Inst  string      `json:"inst"`
	Label label.Label `json:"label"`
}

// recEvtCreate journals one instance a recEvents batch started
// tracking, with the schema tag decided at live apply time.
type recEvtCreate struct {
	Party  string `json:"party"`
	Inst   string `json:"inst"`
	Schema uint64 `json:"schema"`
}

// recEvents journals one applied lane batch of the streaming event
// path (see ingest.go): the events in apply order plus the *decided
// facts* — instances created by the batch with their creation tags,
// and the online-migration tag advances (monotonic, hence idempotent,
// like a recMigShard's). Replay applies the recorded outcomes instead of
// re-running the decisions, so recovery is deterministic regardless of
// how concurrent commit records interleave with event records in the
// WAL. Live replay state is derived data and deliberately absent; it
// is rebuilt lazily from the traces after recovery.
type recEvents struct {
	ID      string         `json:"id"`
	Shard   int            `json:"shard"`
	Events  []recEvent     `json:"events"`
	Created []recEvtCreate `json:"created,omitempty"`
	Target  uint64         `json:"target,omitempty"`
	Tags    []tagRef       `json:"tags,omitempty"`
}

// recMigJob journals the creation of a bulk-migration job.
type recMigJob struct {
	Job     string `json:"job"`
	ID      string `json:"id"`
	Version uint64 `json:"version"`
	Shards  int    `json:"shards"`
}

// tagRef addresses one instance record inside a shard: its party and
// its index in the party's shard slice.
type tagRef struct {
	Party string `json:"party"`
	Ref   int    `json:"ref"`
}

// recMigTags is the tag record sweeps wrote before a recMigShard
// carried its shard's tag advances: one shard's migrated refs, written
// ahead of the shard's fold. Nothing writes it anymore; replay still
// applies it, monotonically, so older logs recover.
type recMigTags struct {
	ID     string   `json:"id"`
	Target uint64   `json:"target"`
	Shard  int      `json:"shard"`
	Refs   []tagRef `json:"refs"`
}

// recIdem journals one idempotency key entering the dedup window,
// with the outcome of the keyed commit it rode behind (see idem.go).
type recIdem struct {
	Key     string `json:"key"`
	ID      string `json:"id"`
	Version uint64 `json:"version"`
}

// recMigShard journals one swept shard (see sweepShard): the advance
// of choreography ID's records listed in Tags to schema Target, and
// the shard's fold into its job's checkpoint. Replay applies both
// together, so a recovered shard is either fully committed or still
// pending. Logs written before sweeps journaled their tags here carry
// a recMigTags ahead of a recMigShard without ID, Target and Tags.
type recMigShard struct {
	Job      string             `json:"job"`
	Shard    int                `json:"shard"`
	Counts   migrate.Counts     `json:"counts"`
	Stranded []migrate.Stranded `json:"stranded,omitempty"`
	ID       string             `json:"id,omitempty"`
	Target   uint64             `json:"target,omitempty"`
	Tags     []tagRuns          `json:"tags,omitempty"`
}

// tagRuns lists one party's records a recMigShard advances, as runs
// of consecutive refs: Runs holds (first ref, run length) pairs.
type tagRuns struct {
	Party string `json:"party"`
	Runs  []int  `json:"runs"`
}

// add appends ref, extending the last run when ref continues it.
func (tr *tagRuns) add(ref int) {
	if n := len(tr.Runs); n > 0 && tr.Runs[n-2]+tr.Runs[n-1] == ref {
		tr.Runs[n-1]++
		return
	}
	tr.Runs = append(tr.Runs, ref, 1)
}

// advanceTags moves the records rec.Tags lists to rec.Target; tags
// never downgrade. The caller holds sh.mu.
func (rec *recMigShard) advanceTags(sh *instShard) error {
	for _, tr := range rec.Tags {
		recs := sh.recs[tr.Party]
		if len(tr.Runs)%2 != 0 {
			return fmt.Errorf("migration shard %d: odd run list for party %s", rec.Shard, tr.Party)
		}
		for i := 0; i < len(tr.Runs); i += 2 {
			from, n := tr.Runs[i], tr.Runs[i+1]
			if from < 0 || n < 0 || from+n > len(recs) {
				return fmt.Errorf("migration shard %d: refs %s/%d+%d out of range", rec.Shard, tr.Party, from, n)
			}
			for _, r := range recs[from : from+n] {
				if r.schema < rec.Target {
					r.schema = rec.Target
				}
			}
		}
	}
	return nil
}

// appendWAL journals one record; a nil journal appends nothing.
// Callers hold persistMu.RLock plus the inner lock that orders the
// mutation (see the package comment above). The migShard and events
// records have hand-written encoders instead (walenc.go).
func (s *Store) appendWAL(rec *walRecord) error {
	if s.jnl == nil {
		return nil
	}
	data, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("store: encoding journal record: %w", err)
	}
	return s.appendJournal(data)
}

// appendJournal appends one encoded record to the journal. A record
// past journal.MaxRecordBytes fails with journal.ErrTooLarge, and
// nothing is written.
func (s *Store) appendJournal(data []byte) error {
	if _, err := s.jnl.Append(data); err != nil {
		return s.checkAppendErr(fmt.Errorf("store: %w", err))
	}
	return nil
}

// persistRLock enters the journaled-mutation critical section,
// returning the matching unlock; both are no-ops on an in-memory
// store.
func (s *Store) persistRLock() func() {
	if s.jnl == nil {
		return func() {}
	}
	s.persistMu.RLock()
	return s.persistMu.RUnlock
}

// publish journals a commit record for next (touched lists the
// parties this commit re-derived) and atomically publishes it; on an
// in-memory store it just publishes. Append and publish share the
// persistMu read lock so a checkpoint can never separate them; the
// caller holds the choreography's commit lock, which orders the
// records of one choreography.
//
// A non-empty idempotency key additionally journals a recIdem record
// behind the commit record and enters the key into the dedup window.
// The commit is already durable and applied when the idem append
// runs, so an idem append failure cannot fail the call — it only
// costs the retry its idempotent success (it gets ErrConflict
// instead; see idem.go).
func (s *Store) publish(e *entry, next *Snapshot, touched []*bpel.Process, key string) error {
	if s.jnl == nil {
		e.snap.Store(next)
		if key != "" {
			s.idemRecord(key, IdemResult{ID: next.ID, Version: next.Version})
		}
		return nil
	}
	rec := recCommit{ID: next.ID, Version: next.Version, XMLs: make([]string, 0, len(touched))}
	for _, p := range touched {
		xml, err := bpel.MarshalXML(p)
		if err != nil {
			return fmt.Errorf("store: journaling %q: %w", p.Owner, err)
		}
		rec.XMLs = append(rec.XMLs, string(xml))
	}
	s.persistMu.RLock()
	defer s.persistMu.RUnlock()
	if err := s.appendWAL(&walRecord{Commit: &rec}); err != nil {
		return err
	}
	e.snap.Store(next)
	if key != "" {
		_ = s.appendWAL(&walRecord{Idem: &recIdem{Key: key, ID: next.ID, Version: next.Version}})
		s.idemRecord(key, IdemResult{ID: next.ID, Version: next.Version})
	}
	return nil
}

// recordInstances journals and applies one instance recording. The
// per-entry instance-append lock keeps the WAL order of concurrent
// recordings identical to their in-memory append order — shard slice
// indices are migration refs, so replay must rebuild the slices in
// exactly the original order.
func (s *Store) recordInstances(e *entry, party string, insts []instance.Instance, schema uint64) error {
	syms := newLabelSyms(e.snap.Load().syms)
	if s.jnl == nil {
		e.addInstances(party, insts, schema, syms)
		return nil
	}
	rec := recInstances{ID: e.id, Party: party, Schema: schema, Insts: make([]persistedInst, 0, len(insts))}
	for _, inst := range insts {
		// Party and Schema live on the record envelope (replay reads
		// them from there); the per-inst fields stay zero in the WAL
		// and are only load-bearing in the checkpoint schema.
		rec.Insts = append(rec.Insts, persistedInst{ID: inst.ID, Trace: inst.Trace})
	}
	e.instAppendMu.Lock()
	defer e.instAppendMu.Unlock()
	s.persistMu.RLock()
	defer s.persistMu.RUnlock()
	if err := s.appendWAL(&walRecord{Instances: &rec}); err != nil {
		return err
	}
	e.addInstances(party, insts, schema, syms)
	return nil
}

// ---- snapshot serialization ----

// persistedStore is the checkpoint schema (see docs/persistence.md).
type persistedStore struct {
	Choreographies []persistedChoreo  `json:"choreographies"`
	Jobs           []migrate.JobState `json:"jobs,omitempty"`
}

type persistedChoreo struct {
	ID      string           `json:"id"`
	Version uint64           `json:"version"`
	SyncOps []string         `json:"syncOps,omitempty"`
	Parties []persistedParty `json:"parties"`
	// Instances are serialized in shard-scan order (shard index, then
	// party name, then slice order) so re-adding them one by one
	// reproduces the exact shard slice layout — and with it the refs
	// pending migration jobs address instances by.
	Instances []persistedInst `json:"instances,omitempty"`
}

type persistedParty struct {
	Name    string `json:"name"`
	Version uint64 `json:"version"`
	XML     string `json:"xml"`
}

type persistedInst struct {
	Party  string        `json:"party,omitempty"`
	ID     string        `json:"id"`
	Trace  []label.Label `json:"trace,omitempty"`
	Schema uint64        `json:"schema,omitempty"`
}

// serialize captures the full store state. The caller holds
// persistMu.Lock, so no journaled mutation is in flight; reads still
// are, and every structure touched here is either immutable
// (snapshots, party states) or copied under its own lock.
func (s *Store) serialize() ([]byte, error) {
	var ids []string
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		for id := range sh.entries {
			ids = append(ids, id)
		}
		sh.mu.RUnlock()
	}
	sort.Strings(ids)
	out := persistedStore{Choreographies: make([]persistedChoreo, 0, len(ids))}
	for _, id := range ids {
		e, err := s.entry(id)
		if err != nil {
			continue // deleted since the scan; its records are gone with it
		}
		pc, err := persistChoreo(e)
		if err != nil {
			return nil, err
		}
		out.Choreographies = append(out.Choreographies, pc)
	}
	s.migMu.Lock()
	for _, jobID := range s.migOrder {
		out.Jobs = append(out.Jobs, s.migs[jobID].State())
	}
	s.migMu.Unlock()
	return json.Marshal(out)
}

func persistChoreo(e *entry) (persistedChoreo, error) {
	snap := e.snap.Load()
	pc := persistedChoreo{
		ID:      snap.ID,
		Version: snap.Version,
		SyncOps: snap.syncOps,
		Parties: make([]persistedParty, 0, len(snap.order)),
	}
	for _, name := range snap.order {
		ps := snap.parties[name]
		xml, err := bpel.MarshalXML(ps.Private)
		if err != nil {
			return persistedChoreo{}, fmt.Errorf("store: serializing %s/%s: %w", snap.ID, name, err)
		}
		pc.Parties = append(pc.Parties, persistedParty{Name: name, Version: ps.Version, XML: string(xml)})
	}
	// Traces are checkpointed as label text, like the WAL records:
	// symbols are an in-memory encoding, and recovery resolves the
	// labels again through the recovered interner.
	for i := range e.inst {
		sh := &e.inst[i]
		sh.mu.Lock()
		names := snap.syms.Labels()
		parties := make([]string, 0, len(sh.recs))
		for party := range sh.recs {
			parties = append(parties, party)
		}
		sort.Strings(parties)
		for _, party := range parties {
			for _, rec := range sh.recs[party] {
				pc.Instances = append(pc.Instances, persistedInst{
					Party: party, ID: rec.id, Trace: rec.labeled(names).Trace, Schema: rec.schema,
				})
			}
		}
		sh.mu.Unlock()
	}
	return pc, nil
}

// ---- recovery ----

// restoreSnapshot loads a checkpoint into the (still empty,
// single-goroutine) store. Like replay, it must be deterministic:
// restoring the same checkpoint twice builds identical state, down to
// the job retention order (migOrder), which the recovery tests'
// assertJobsEqual compares with the live store's.
func (s *Store) restoreSnapshot(data []byte) error {
	var ps persistedStore
	if err := json.Unmarshal(data, &ps); err != nil {
		return fmt.Errorf("store: decoding checkpoint: %w", err)
	}
	for _, pc := range ps.Choreographies {
		if err := s.restoreChoreo(pc); err != nil {
			return err
		}
	}
	for _, st := range ps.Jobs {
		if len(st.Done) != instShardCount {
			return fmt.Errorf("store: checkpointed migration job %q: %d shards, want %d", st.ID, len(st.Done), instShardCount)
		}
		s.migs[st.ID] = migrate.RestoreJob(st)
		s.migOrder = append(s.migOrder, st.ID)
	}
	return nil
}

// restoreChoreo rebuilds one choreography the way the commit path
// built it: registry inferred over all privates, each public
// re-derived and re-interned into one fresh shared interner, pair
// cache recomputed — only the recorded versions are pinned instead of
// recounted. Builder: every snapshot and automaton it touches is under
// construction here, published only at the end via e.snap.Store.
func (s *Store) restoreChoreo(pc persistedChoreo) error {
	procs := make([]*bpel.Process, 0, len(pc.Parties))
	for _, pp := range pc.Parties {
		p, err := bpel.UnmarshalXML([]byte(pp.XML))
		if err != nil {
			return fmt.Errorf("store: restoring %s/%s: %w", pc.ID, pp.Name, err)
		}
		if p.Owner != pp.Name {
			return fmt.Errorf("store: restoring %s: party %q carries process owned by %q", pc.ID, pp.Name, p.Owner)
		}
		procs = append(procs, p)
	}
	reg, err := mapping.InferRegistry(procs, pc.SyncOps)
	if err != nil {
		return fmt.Errorf("store: restoring %s: %w", pc.ID, err)
	}
	snap := &Snapshot{
		ID:       pc.ID,
		Version:  pc.Version,
		Registry: reg,
		syms:     label.NewInterner(),
		syncOps:  append([]string(nil), pc.SyncOps...),
		parties:  map[string]*PartyState{},
	}
	for i, pp := range pc.Parties {
		res, err := mapping.Derive(procs[i], reg)
		if err != nil {
			return fmt.Errorf("store: restoring %s/%s: %w", pc.ID, pp.Name, err)
		}
		res.Automaton.Reintern(snap.syms)
		snap.parties[pp.Name] = newPartyState(procs[i], res, pp.Version)
		snap.order = append(snap.order, pp.Name)
	}
	snap.computePairs()
	e := &entry{id: pc.ID, cons: map[pairKey]bool{}}
	e.snap.Store(snap)
	syms := newLabelSyms(snap.syms)
	for _, pi := range pc.Instances {
		e.addInstances(pi.Party, []instance.Instance{{ID: pi.ID, Trace: pi.Trace}}, pi.Schema, syms)
	}
	sh := s.shardOf(pc.ID)
	sh.mu.Lock()
	sh.entries[pc.ID] = e
	sh.mu.Unlock()
	return nil
}

// replay applies one WAL record. Replay runs single-goroutine on a
// store nobody else can see, before journaling starts. Nothing below
// may consult the clock, randomness, or map iteration order —
// recovery must be a pure function of the journaled facts.
// TestRecoverRandomOps, TestCorpusRecovery and TestChaosSoak compare
// every recovered store with its live twin in depth, so any such
// leak shows up as a recovery mismatch.
func (s *Store) replay(data []byte) error {
	var rec walRecord
	if err := json.Unmarshal(data, &rec); err != nil {
		return fmt.Errorf("decoding: %w", err)
	}
	switch {
	case rec.Create != nil:
		return s.applyCreate(rec.Create)
	case rec.Delete != nil:
		return s.applyDelete(rec.Delete)
	case rec.Commit != nil:
		return s.applyCommit(rec.Commit)
	case rec.Instances != nil:
		return s.applyInstances(rec.Instances)
	case rec.Events != nil:
		return s.applyEvents(rec.Events)
	case rec.MigJob != nil:
		return s.applyMigJob(rec.MigJob)
	case rec.MigTags != nil:
		return s.applyMigTags(rec.MigTags)
	case rec.MigShard != nil:
		return s.applyMigShard(rec.MigShard)
	case rec.Idem != nil:
		return s.applyIdem(rec.Idem)
	default:
		return fmt.Errorf("empty record")
	}
}

func (s *Store) applyCreate(rec *recCreate) error {
	sh := s.shardOf(rec.ID)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if _, dup := sh.entries[rec.ID]; !dup {
		sh.entries[rec.ID] = newEntry(rec.ID, rec.SyncOps)
	}
	return nil
}

func (s *Store) applyDelete(rec *recDelete) error {
	sh := s.shardOf(rec.ID)
	sh.mu.Lock()
	delete(sh.entries, rec.ID)
	sh.mu.Unlock()
	return nil
}

func (s *Store) applyCommit(rec *recCommit) error {
	e, err := s.entry(rec.ID)
	if err != nil {
		// A commit raced a delete when the record was written; the live
		// store published to an already-removed entry, so dropping it
		// reproduces the observable state.
		return nil
	}
	cur := e.snap.Load()
	if rec.Version <= cur.Version {
		return nil
	}
	if rec.Version != cur.Version+1 {
		return fmt.Errorf("commit gap: choreography %q at version %d, record %d", rec.ID, cur.Version, rec.Version)
	}
	procs := make([]*bpel.Process, 0, len(rec.XMLs))
	for _, xml := range rec.XMLs {
		p, err := bpel.UnmarshalXML([]byte(xml))
		if err != nil {
			return fmt.Errorf("commit for %q: %w", rec.ID, err)
		}
		procs = append(procs, p)
	}
	next, err := s.rebuildAll(context.Background(), cur, procs)
	if err != nil {
		return fmt.Errorf("commit for %q: %w", rec.ID, err)
	}
	if next.Version != rec.Version {
		return fmt.Errorf("commit for %q rebuilt version %d, record says %d", rec.ID, next.Version, rec.Version)
	}
	e.snap.Store(next)
	return nil
}

func (s *Store) applyInstances(rec *recInstances) error {
	e, err := s.entry(rec.ID)
	if err != nil {
		return nil // raced a delete; see applyCommit
	}
	syms := newLabelSyms(e.snap.Load().syms)
	for _, pi := range rec.Insts {
		e.addInstances(rec.Party, []instance.Instance{{ID: pi.ID, Trace: pi.Trace}}, rec.Schema, syms)
	}
	return nil
}

// applyEvents replays one lane batch of ingested events: traces grow
// by the recorded labels in order, instances the batch started
// tracking are re-created in first-touch order (reproducing the exact
// shard slots), and the journaled tag advances are re-applied
// monotonically. Live replay state stays nil — it is derived data,
// rebuilt lazily on the next event or read.
func (s *Store) applyEvents(rec *recEvents) error {
	e, err := s.entry(rec.ID)
	if err != nil {
		return nil // raced a delete; see applyCommit
	}
	if rec.Shard < 0 || rec.Shard >= instShardCount {
		return fmt.Errorf("ingested events for %q: shard %d out of range", rec.ID, rec.Shard)
	}
	created := make(map[instIdxKey]uint64, len(rec.Created))
	for _, c := range rec.Created {
		created[instIdxKey{c.Party, c.Inst}] = c.Schema
	}
	syms := newLabelSyms(e.snap.Load().syms)
	sh := &e.inst[rec.Shard]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	for _, ev := range rec.Events {
		k := instIdxKey{ev.Party, ev.Inst}
		r := sh.idx[k]
		if r == nil {
			schema, isNew := created[k]
			if !isNew {
				return fmt.Errorf("ingested events for %q: unknown instance %s/%s", rec.ID, ev.Party, ev.Inst)
			}
			r = &instRecord{id: ev.Inst, schema: schema}
			sh.appendLocked(ev.Party, r)
		}
		r.appendMsg(syms.of(ev.Label), ev.Label)
	}
	for _, ref := range rec.Tags {
		recs := sh.recs[ref.Party]
		if ref.Ref < 0 || ref.Ref >= len(recs) {
			return fmt.Errorf("ingested events for %q: ref %s/%d out of range", rec.ID, ref.Party, ref.Ref)
		}
		if r := recs[ref.Ref]; r.schema < rec.Target {
			r.schema = rec.Target
		}
	}
	return nil
}

func (s *Store) applyMigJob(rec *recMigJob) error {
	if _, ok := s.migs[rec.Job]; ok {
		return nil
	}
	if rec.Shards != instShardCount {
		return fmt.Errorf("migration job %q: %d shards, want %d", rec.Job, rec.Shards, instShardCount)
	}
	job := migrate.RestoreJob(migrate.JobState{
		ID:            rec.Job,
		Choreography:  rec.ID,
		TargetVersion: rec.Version,
		Status:        migrate.StatusRunning, // settled to Canceled (resumable) by RestoreJob
		Done:          make([]bool, rec.Shards),
	})
	s.migs[rec.Job] = job
	s.migOrder = append(s.migOrder, rec.Job)
	return nil
}

func (s *Store) applyMigTags(rec *recMigTags) error {
	e, err := s.entry(rec.ID)
	if err != nil {
		return nil // raced a delete
	}
	if rec.Shard < 0 || rec.Shard >= instShardCount {
		return fmt.Errorf("migration tags for %q: shard %d out of range", rec.ID, rec.Shard)
	}
	sh := &e.inst[rec.Shard]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	for _, ref := range rec.Refs {
		recs := sh.recs[ref.Party]
		if ref.Ref < 0 || ref.Ref >= len(recs) {
			return fmt.Errorf("migration tags for %q: ref %s/%d out of range", rec.ID, ref.Party, ref.Ref)
		}
		if r := recs[ref.Ref]; r.schema < rec.Target {
			r.schema = rec.Target
		}
	}
	return nil
}

// applyIdem rebuilds the dedup window entry for one keyed commit.
// idemRecord's eviction is FIFO over insertion order — replay in WAL
// order reproduces the live window exactly.
func (s *Store) applyIdem(rec *recIdem) error {
	s.idemRecord(rec.Key, IdemResult{ID: rec.ID, Version: rec.Version})
	return nil
}

// applyMigShard re-applies one swept shard: its tag advances (absent
// in older logs, whose recMigTags carried them), then its fold.
func (s *Store) applyMigShard(rec *recMigShard) error {
	if rec.Shard < 0 || rec.Shard >= instShardCount {
		return fmt.Errorf("migration shard for job %q: shard %d out of range", rec.Job, rec.Shard)
	}
	if len(rec.Tags) > 0 {
		if e, err := s.entry(rec.ID); err == nil { // else raced a delete
			sh := &e.inst[rec.Shard]
			sh.mu.Lock()
			err := rec.advanceTags(sh)
			sh.mu.Unlock()
			if err != nil {
				return fmt.Errorf("migration tags for %q: %w", rec.ID, err)
			}
		}
	}
	job, ok := s.migs[rec.Job]
	if !ok {
		return nil // the job was evicted before this fold was checkpointed
	}
	job.FoldShard(rec.Shard, rec.Counts, rec.Stranded)
	return nil
}
