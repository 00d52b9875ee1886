// Package store is the serving heart of choreod: a sharded, versioned,
// in-memory choreography store designed for heavy concurrent traffic.
//
// Each choreography lives behind an atomically published copy-on-write
// Snapshot: readers (consistency checks, evolution analyses, view and
// discovery queries) grab the current snapshot pointer and proceed
// without holding any lock, while writers build the next snapshot and
// publish it under a per-choreography commit lock. Party states that a
// commit does not touch are shared between snapshots, so the expensive
// derived artifacts memoized on them — the bilateral views
// τ_partner(public) — are amortized across requests and commits alike.
//
// The bilateral-consistency results (intersection + annotated
// emptiness, the hot path of the paper's criterion) are cached per
// choreography keyed by (partyA, versionA, partyB, versionB). Because
// party versions are part of the key, a commit invalidates exactly the
// pairs the changed party participates in; results for untouched pairs
// keep hitting. The choreography ID space is partitioned over
// independently locked shards so unrelated choreographies never
// contend.
//
// # Construction options
//
// New takes functional options. WithShards(n) sets the choreography
// shard count (DefaultShards when omitted): shards bound lock
// contention between unrelated choreographies, not capacity.
// WithCacheCap(n) bounds the per-choreography consistency-result
// cache to n entries with arbitrary eviction on overflow; the default
// is unbounded, which is right for populations whose version churn is
// low relative to memory. WithJournal(dir) makes the store durable —
// write-ahead logging, crash recovery, online checkpoints; it
// requires the fallible constructor Open (see persist.go and
// docs/persistence.md).
//
// # Context contract
//
// Every public method takes a leading context.Context. Cheap methods
// check it once on entry; the expensive paths — consistency checks
// (between pairs), evolution analyses (between partners), snapshot
// rebuilds (between parties) and bulk-migration sweeps (between
// instances) — re-check between units of work, so an abandoned
// request stops burning CPU mid-computation. Cancellation never
// corrupts state: writes either publish a complete successor snapshot
// or nothing, and a canceled migration sweep keeps only whole,
// committed shards.
//
// # Batch and transaction contract
//
// Writes are transactional per choreography: one call, one registry
// inference, one published snapshot, one version bump — whether it
// registers a single party (RegisterParty), a whole batch
// (PutParties), or commits a multi-operation change transaction
// (Evolve + CommitEvolution). Optimistic concurrency is uniform: an
// analysis is pinned to the snapshot version it read, and committing
// it fails with ErrConflict once the choreography has advanced.
// Partial failure never publishes — if any party of a batch fails to
// derive, the snapshot stands untouched.
//
// # Instances and bulk migration
//
// Running instances are runtime data outside the schema snapshots,
// partitioned per choreography over independently locked instance
// shards. MigrateAll / StartMigration sweep them to the current
// committed snapshot through the internal/migrate engine: bounded
// workers over the shards, per-party compliance checkers memoized on
// the immutable party states, and an idempotent, resumable job per
// (choreography, version) — see instances.go.
package store

import (
	"context"
	"fmt"
	"hash/fnv"
	"sync"
	"sync/atomic"

	"repro/internal/afsa"
	"repro/internal/bpel"
	"repro/internal/ingest"
	"repro/internal/journal"
	"repro/internal/label"
	"repro/internal/mapping"
	"repro/internal/migrate"
)

// Sentinel errors, mapped onto HTTP statuses by the server layer.
var (
	// ErrNotFound marks an unknown choreography or party.
	ErrNotFound = fmt.Errorf("store: not found")
	// ErrExists marks a duplicate registration.
	ErrExists = fmt.Errorf("store: already exists")
	// ErrConflict marks an optimistic-concurrency failure: the
	// choreography advanced since the evolution was analyzed.
	ErrConflict = fmt.Errorf("store: version conflict")
	// ErrInvalid marks malformed input (empty IDs, ownerless processes,
	// empty batches).
	ErrInvalid = fmt.Errorf("store: invalid argument")
	// ErrDegraded marks a store in degraded read-only mode after an
	// unrecoverable journal write error: reads serve the last committed
	// state, every mutation fails (see degraded.go).
	ErrDegraded = fmt.Errorf("store: degraded, read-only")
	// ErrClosed marks a store after Close.
	ErrClosed = fmt.Errorf("store: closed")
)

// pairKey keys one bilateral-consistency result. Party names are
// ordered (A < B) so both query directions share one entry; the
// versions make results from superseded schemas unreachable.
type pairKey struct {
	a, b   string
	va, vb uint64
}

// entry is the mutable cell owning one choreography.
type entry struct {
	id string

	// commitMu serializes writers; readers never take it.
	commitMu commitMutex
	// snap is the current snapshot, atomically published.
	snap atomic.Pointer[Snapshot]

	// cons caches bilateral-consistency results for this choreography.
	consMu sync.RWMutex
	cons   map[pairKey]bool

	// inst holds running conversations — runtime data, deliberately
	// outside the schema snapshots — sharded so bulk-migration sweeps
	// never lock the whole population (see instances.go).
	inst [instShardCount]instShard
	// instAppendMu orders journaled instance recordings: the WAL order
	// of recInstances and recEvents records must match the in-memory
	// append order, because shard slice indices are migration refs
	// (see recordInstances in persist.go and applyIngest in
	// ingest.go). Untaken on in-memory stores.
	instAppendMu instAppendMutex

	// ing is the choreography's streaming event engine, created lazily
	// on the first IngestEvents call (see ingest.go).
	ingMu sync.Mutex
	ing   *ingest.Engine
}

type shard struct {
	mu      sync.RWMutex
	entries map[string]*entry
}

// Stats are cumulative store counters.
type Stats struct {
	Choreographies int
	// ConsistencyHits/Misses count bilateral-consistency lookups
	// answered from / missing the result cache.
	ConsistencyHits, ConsistencyMisses uint64
	// ViewHits/Misses count bilateral-view lookups answered from /
	// missing the per-party memo.
	ViewHits, ViewMisses uint64
	// Commits counts published snapshots; Conflicts counts commits
	// rejected by optimistic concurrency.
	Commits, Conflicts uint64
	// Evolutions counts analyzed (not necessarily committed) changes.
	Evolutions uint64
	// TrackedInstances counts currently tracked instance records
	// across all choreographies; InstancesByChoreography breaks the
	// count down per choreography.
	TrackedInstances        int
	InstancesByChoreography map[string]int
	// EventsIngested counts events accepted by the streaming path;
	// IngestRejected counts events turned away by backpressure (whole
	// batches); OnlineMigrations counts instances the streaming path
	// moved to a newer schema at a compliant point (see ingest.go).
	EventsIngested, IngestRejected, OnlineMigrations uint64
	// IngestLaneRejects breaks IngestRejected down by ingest lane,
	// summed across all choreographies' engines.
	IngestLaneRejects []uint64
	// Degraded reports the store is in read-only mode; LastError is the
	// journal failure that forced it there (empty while healthy).
	Degraded  bool
	LastError string
}

// Store is a sharded in-memory choreography store safe for concurrent
// use. With WithJournal it is additionally durable: mutations are
// written ahead to a journal and recovered on Open (see persist.go
// and docs/persistence.md).
type Store struct {
	shards   []shard
	cacheCap int

	// journalDir/journalFsync are the WithJournal* settings; jnl is
	// the open journal (nil on an in-memory store, set once before the
	// store is shared). persistMu orders journaled mutations against
	// Checkpoint: mutators append+apply under the read side, a
	// checkpoint serializes state and truncates the log under the
	// write side. Lock order: commitMu and instAppendMu outside
	// persistMu, all other store locks inside it (see persist.go);
	// race builds check the first half (lockrank.go).
	journalDir   string
	journalFsync bool
	jnl          *journal.Log
	persistMu    persistMutex

	// migs tracks bulk-migration jobs by job ID (see instances.go);
	// migOrder is their creation order for bounded retention.
	migMu    sync.Mutex
	migs     map[string]*migrate.Job
	migOrder []string

	// ingestWorkers/ingestQueueCap are the WithIngest* settings; zero
	// keeps the ingest.go defaults.
	ingestWorkers  int
	ingestQueueCap int

	consHits, consMisses atomic.Uint64
	viewHits, viewMisses atomic.Uint64
	commits, conflicts   atomic.Uint64
	evolutions           atomic.Uint64

	eventsIngested   atomic.Uint64
	ingestRejected   atomic.Uint64
	onlineMigrations atomic.Uint64

	// degradedState pins the first unrecoverable journal error (see
	// degraded.go). closeMu is the mutation gate and the outermost
	// store lock: every mutating entry point holds the read side for
	// its duration (via beginMutation), Close flips closed under the
	// write side, so the flip doubles as a drain barrier.
	degradedState atomic.Pointer[degradedState]
	closeMu       sync.RWMutex
	closed        bool

	// idem is the commit idempotency-key dedup window (see idem.go):
	// key → applied outcome, with idemOrder the FIFO eviction order.
	// idemMu sits inside persistMu (taken under the commit lock).
	idemMu    sync.Mutex
	idem      map[string]IdemResult
	idemOrder []string
}

// DefaultShards is the shard count used unless WithShards overrides it.
const DefaultShards = 16

// Option configures a Store at construction time.
type Option func(*Store)

// WithShards partitions the choreography ID space over n independently
// locked shards (n <= 0 keeps DefaultShards).
func WithShards(n int) Option {
	return func(s *Store) {
		if n > 0 {
			s.shards = make([]shard, n)
		}
	}
}

// WithCacheCap bounds the per-choreography consistency-result cache to
// n entries; once full, arbitrary entries are evicted to make room
// (n <= 0 keeps the cache unbounded, the default).
func WithCacheCap(n int) Option {
	return func(s *Store) {
		if n > 0 {
			s.cacheCap = n
		}
	}
}

// New returns an empty store configured by opts. It panics when opts
// include WithJournal — opening a journal performs recovery, which
// can fail; durable stores are constructed with Open, which reports
// the error.
func New(opts ...Option) *Store {
	s := newStore(opts...)
	if s.journalDir != "" {
		panic("store: New cannot open a journal (recovery can fail); use store.Open")
	}
	return s
}

// newStore builds the in-memory skeleton both New and Open share.
func newStore(opts ...Option) *Store {
	s := &Store{shards: make([]shard, DefaultShards), migs: map[string]*migrate.Job{}, idem: map[string]IdemResult{}}
	for _, opt := range opts {
		opt(s)
	}
	for i := range s.shards {
		s.shards[i].entries = map[string]*entry{}
	}
	return s
}

// ctxErr translates a canceled or expired context into a store error;
// the expensive check and evolve paths call it between units of work so
// an abandoned request stops burning CPU.
func ctxErr(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	return nil
}

func (s *Store) shardOf(id string) *shard {
	h := fnv.New32a()
	h.Write([]byte(id))
	return &s.shards[h.Sum32()%uint32(len(s.shards))]
}

func (s *Store) entry(id string) (*entry, error) {
	sh := s.shardOf(id)
	sh.mu.RLock()
	e, ok := sh.entries[id]
	sh.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: choreography %q", ErrNotFound, id)
	}
	return e, nil
}

// Create registers an empty choreography. syncOps entries "party.op"
// mark synchronous operations for the registries inferred on party
// registration.
func (s *Store) Create(ctx context.Context, id string, syncOps []string) error {
	if err := ctxErr(ctx); err != nil {
		return err
	}
	release, err := s.beginMutation()
	if err != nil {
		return err
	}
	defer release()
	if id == "" {
		return fmt.Errorf("%w: empty choreography id", ErrInvalid)
	}
	unlock := s.persistRLock()
	defer unlock()
	sh := s.shardOf(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if _, dup := sh.entries[id]; dup {
		return fmt.Errorf("%w: choreography %q", ErrExists, id)
	}
	if err := s.appendWAL(&walRecord{Create: &recCreate{ID: id, SyncOps: syncOps}}); err != nil {
		return err
	}
	sh.entries[id] = newEntry(id, syncOps)
	return nil
}

// newEntry returns the entry of an empty choreography at version 0.
func newEntry(id string, syncOps []string) *entry {
	e := &entry{id: id, cons: map[pairKey]bool{}}
	e.snap.Store(&Snapshot{
		ID:      id,
		syms:    label.NewInterner(),
		syncOps: append([]string(nil), syncOps...),
		parties: map[string]*PartyState{},
	})
	return e
}

// Delete removes a choreography, shutting its event engine down;
// in-flight ingest submissions fail with ingest.ErrClosed.
func (s *Store) Delete(ctx context.Context, id string) error {
	if err := ctxErr(ctx); err != nil {
		return err
	}
	release, err := s.beginMutation()
	if err != nil {
		return err
	}
	defer release()
	e, err := func() (*entry, error) {
		unlock := s.persistRLock()
		defer unlock()
		sh := s.shardOf(id)
		sh.mu.Lock()
		defer sh.mu.Unlock()
		e, ok := sh.entries[id]
		if !ok {
			return nil, fmt.Errorf("%w: choreography %q", ErrNotFound, id)
		}
		if err := s.appendWAL(&walRecord{Delete: &recDelete{ID: id}}); err != nil {
			return nil, err
		}
		delete(sh.entries, id)
		return e, nil
	}()
	if err != nil {
		return err
	}
	// Outside every lock: Close waits for in-flight lane applies,
	// which take the persist read lock and the instance shard locks.
	e.closeIngest()
	return nil
}

// IDs returns the stored choreography IDs (unordered across shards,
// sorted within none — callers sort if they care).
func (s *Store) IDs(ctx context.Context) ([]string, error) {
	if err := ctxErr(ctx); err != nil {
		return nil, err
	}
	var out []string
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		for id := range sh.entries {
			out = append(out, id)
		}
		sh.mu.RUnlock()
	}
	return out, nil
}

// Snapshot returns the current snapshot of a choreography. The
// snapshot is immutable: it remains valid (and unchanged) regardless
// of concurrent commits.
func (s *Store) Snapshot(ctx context.Context, id string) (*Snapshot, error) {
	if err := ctxErr(ctx); err != nil {
		return nil, err
	}
	e, err := s.entry(id)
	if err != nil {
		return nil, err
	}
	return e.snap.Load(), nil
}

// commit runs one write to choreography id: check ctx, pass the
// mutation gate, look the choreography up, take its commit lock,
// answer a key already in the idempotency window with the version it
// published, build the next snapshot from the current one, publish
// it, and drop the cached pair results of every touched party that
// existed before. build checks the write's preconditions under the
// commit lock and lists the parties it re-derived.
func (s *Store) commit(ctx context.Context, id, key string, build func(cur *Snapshot) (next *Snapshot, touched []*bpel.Process, err error)) (*Snapshot, uint64, error) {
	if err := ctxErr(ctx); err != nil {
		return nil, 0, err
	}
	release, err := s.beginMutation()
	if err != nil {
		return nil, 0, err
	}
	defer release()
	e, err := s.entry(id)
	if err != nil {
		return nil, 0, err
	}
	e.commitMu.Lock()
	defer e.commitMu.Unlock()
	if key != "" {
		if res, ok := s.IdemSeen(key); ok {
			return e.snap.Load(), res.Version, nil
		}
	}
	cur := e.snap.Load()
	next, touched, err := build(cur)
	if err != nil {
		return nil, 0, err
	}
	if err := s.publish(e, next, touched, key); err != nil {
		return nil, 0, err
	}
	s.commits.Add(1)
	for _, p := range touched {
		if _, existed := cur.parties[p.Owner]; existed {
			s.invalidatePairs(e, p.Owner)
		}
	}
	return next, next.Version, nil
}

// RegisterParty derives the public process of p and adds the party to
// the choreography. The snapshot registry is re-inferred over all
// private processes including the new one.
func (s *Store) RegisterParty(ctx context.Context, id string, p *bpel.Process) (*Snapshot, error) {
	if p == nil || p.Owner == "" {
		return nil, fmt.Errorf("%w: register needs a process with an owner", ErrInvalid)
	}
	procs := []*bpel.Process{p}
	next, _, err := s.commit(ctx, id, "", func(cur *Snapshot) (*Snapshot, []*bpel.Process, error) {
		if _, dup := cur.parties[p.Owner]; dup {
			return nil, nil, fmt.Errorf("%w: party %q in choreography %q", ErrExists, p.Owner, id)
		}
		next, err := s.rebuildAll(ctx, cur, procs)
		return next, procs, err
	})
	return next, err
}

// UpdateParty replaces a party's private process outright (the
// uncontrolled path: no classification, no propagation planning) and
// invalidates the consistency results of the pairs it touches. A
// non-nil ifVersion pins the write to that snapshot version: the
// check runs under the commit lock, so a lost precondition always
// fails with ErrConflict instead of silently overwriting a concurrent
// commit.
func (s *Store) UpdateParty(ctx context.Context, id string, p *bpel.Process, ifVersion *uint64) (*Snapshot, error) {
	if p == nil || p.Owner == "" {
		return nil, fmt.Errorf("%w: update needs a process with an owner", ErrInvalid)
	}
	procs := []*bpel.Process{p}
	next, _, err := s.commit(ctx, id, "", func(cur *Snapshot) (*Snapshot, []*bpel.Process, error) {
		if err := s.checkVersion(cur, ifVersion); err != nil {
			return nil, nil, err
		}
		if _, ok := cur.parties[p.Owner]; !ok {
			return nil, nil, fmt.Errorf("%w: party %q in choreography %q", ErrNotFound, p.Owner, id)
		}
		next, err := s.rebuildAll(ctx, cur, procs)
		return next, procs, err
	})
	return next, err
}

// checkVersion enforces an optimistic-concurrency precondition under
// the caller-held commit lock; nil means unconditional.
func (s *Store) checkVersion(cur *Snapshot, ifVersion *uint64) error {
	if ifVersion != nil && cur.Version != *ifVersion {
		s.conflicts.Add(1)
		return fmt.Errorf("%w: choreography %q at version %d, precondition %d",
			ErrConflict, cur.ID, cur.Version, *ifVersion)
	}
	return nil
}

// PutParties registers or updates several parties as one change
// transaction: the registry is inferred once over the combined set of
// private processes, every supplied party is re-derived against it,
// and a single successor snapshot is published (one version bump, one
// commit). Parties not present yet are added; existing ones are
// replaced and their cached pair results invalidated. Nothing is
// published if any derivation fails. A non-nil ifVersion pins the
// batch to that snapshot version (checked under the commit lock;
// ErrConflict on a lost race).
func (s *Store) PutParties(ctx context.Context, id string, procs []*bpel.Process, ifVersion *uint64) (*Snapshot, error) {
	if len(procs) == 0 {
		return nil, fmt.Errorf("%w: no parties to put", ErrInvalid)
	}
	seen := map[string]bool{}
	for _, p := range procs {
		if p == nil || p.Owner == "" {
			return nil, fmt.Errorf("%w: put needs processes with owners", ErrInvalid)
		}
		if seen[p.Owner] {
			return nil, fmt.Errorf("%w: party %q appears twice in one batch", ErrInvalid, p.Owner)
		}
		seen[p.Owner] = true
	}
	next, _, err := s.commit(ctx, id, "", func(cur *Snapshot) (*Snapshot, []*bpel.Process, error) {
		if err := s.checkVersion(cur, ifVersion); err != nil {
			return nil, nil, err
		}
		next, err := s.rebuildAll(ctx, cur, procs)
		return next, procs, err
	})
	return next, err
}

// rebuildAll produces the successor snapshot with every proc in procs
// registered (if new) or replaced, re-inferring the registry once over
// the combined set and re-deriving only the supplied processes. Every
// untouched party state is shared with cur. Builder: the successor is
// under construction until the caller publishes it; the automata it
// re-interns are the freshly derived publics, never cur's.
func (s *Store) rebuildAll(ctx context.Context, cur *Snapshot, procs []*bpel.Process) (*Snapshot, error) {
	reg, err := mapping.InferRegistry(cur.privatesWith(procs), cur.syncOps)
	if err != nil {
		return nil, invalid(err)
	}
	next := cur.clone()
	next.Version = cur.Version + 1
	next.Registry = reg
	for _, p := range procs {
		if err := ctxErr(ctx); err != nil {
			return nil, err
		}
		res, err := mapping.Derive(p, reg)
		if err != nil {
			return nil, invalid(fmt.Errorf("deriving %q: %w", p.Owner, err))
		}
		// Move the freshly derived public onto the choreography's
		// shared interner: views and pair products across parties then
		// work on one symbol space without re-hashing labels.
		res.Automaton.Reintern(next.syms)
		var partyVersion uint64 = 1
		if old, ok := cur.parties[p.Owner]; ok {
			partyVersion = old.Version + 1
		} else {
			next.order = append(next.order, p.Owner)
		}
		next.parties[p.Owner] = newPartyState(p, res, partyVersion)
	}
	next.computePairs()
	return next, nil
}

// invalidatePairs drops every cached consistency result involving
// party — exactly the pairs a change to party can touch. Results for
// pairs between other parties stay valid and stay cached.
func (s *Store) invalidatePairs(e *entry, party string) {
	e.consMu.Lock()
	for k := range e.cons {
		if k.a == party || k.b == party {
			delete(e.cons, k)
		}
	}
	e.consMu.Unlock()
}

// view returns the memoized bilateral view, counting hit/miss.
func (s *Store) view(ps *PartyState, forParty string) *afsa.Automaton {
	v, hit := ps.view(forParty)
	if hit {
		s.viewHits.Add(1)
	} else {
		s.viewMisses.Add(1)
	}
	return v
}

// PairResult is the consistency status of one interacting pair.
type PairResult struct {
	A, B       string
	Consistent bool
	// Cached reports whether the result came from the cache.
	Cached bool
}

// CheckReport is the outcome of checking every interacting pair of a
// choreography snapshot.
type CheckReport struct {
	ID string
	// Version is the snapshot version the report describes.
	Version uint64
	Pairs   []PairResult
}

// Consistent reports whether every pair is consistent.
func (r *CheckReport) Consistent() bool {
	for _, p := range r.Pairs {
		if !p.Consistent {
			return false
		}
	}
	return true
}

// CheckSnapshot verifies bilateral consistency of every interacting
// pair of snap, using e's result cache. snap may be older than the
// current snapshot; version-keyed cache entries keep old and new
// results apart.
func (s *Store) checkSnapshot(ctx context.Context, e *entry, snap *Snapshot, useCache bool) (*CheckReport, error) {
	rep := &CheckReport{ID: snap.ID, Version: snap.Version, Pairs: make([]PairResult, 0, len(snap.pairs))}
	for _, pair := range snap.pairs {
		if err := ctxErr(ctx); err != nil {
			return nil, err
		}
		res, err := s.checkPair(e, snap, pair[0], pair[1], useCache)
		if err != nil {
			return nil, err
		}
		rep.Pairs = append(rep.Pairs, res)
	}
	return rep, nil
}

func (s *Store) checkPair(e *entry, snap *Snapshot, a, b string, useCache bool) (PairResult, error) {
	pa, pb := snap.parties[a], snap.parties[b]
	key := pairKey{a: a, b: b, va: pa.Version, vb: pb.Version}
	if key.b < key.a {
		key.a, key.b, key.va, key.vb = key.b, key.a, key.vb, key.va
	}
	if useCache {
		e.consMu.RLock()
		ok, cached := e.cons[key]
		e.consMu.RUnlock()
		if cached {
			s.consHits.Add(1)
			return PairResult{A: a, B: b, Consistent: ok, Cached: true}, nil
		}
		s.consMisses.Add(1)
	}
	ok, err := afsa.Consistent(s.view(pa, b), s.view(pb, a))
	if err != nil {
		return PairResult{}, fmt.Errorf("store: pair %s/%s: %w", a, b, err)
	}
	if useCache {
		e.consMu.Lock()
		e.cons[key] = ok
		if s.cacheCap > 0 {
			for k := range e.cons {
				if len(e.cons) <= s.cacheCap {
					break
				}
				if k != key {
					delete(e.cons, k)
				}
			}
		}
		e.consMu.Unlock()
	}
	return PairResult{A: a, B: b, Consistent: ok}, nil
}

// Check verifies bilateral consistency of every interacting pair,
// serving repeated queries from the result cache. It honors ctx
// cancellation between pairs.
func (s *Store) Check(ctx context.Context, id string) (*CheckReport, error) {
	e, err := s.entry(id)
	if err != nil {
		return nil, err
	}
	return s.checkSnapshot(ctx, e, e.snap.Load(), true)
}

// CheckUncached recomputes every pair, bypassing (and not feeding) the
// result cache — the baseline the cache is measured against.
func (s *Store) CheckUncached(ctx context.Context, id string) (*CheckReport, error) {
	e, err := s.entry(id)
	if err != nil {
		return nil, err
	}
	return s.checkSnapshot(ctx, e, e.snap.Load(), false)
}

// View returns the bilateral view τ_forParty(of's public process) from
// the memo.
func (s *Store) View(ctx context.Context, id, of, forParty string) (*afsa.Automaton, error) {
	snap, err := s.Snapshot(ctx, id)
	if err != nil {
		return nil, err
	}
	ps, ok := snap.parties[of]
	if !ok {
		return nil, fmt.Errorf("%w: party %q in choreography %q", ErrNotFound, of, id)
	}
	return s.view(ps, forParty), nil
}

// Stats returns cumulative counters plus a momentary census of the
// tracked-instance population, summed from per-shard atomic counts:
// a scrape takes no instance-shard lock, so it never waits on an
// ingest batch's journal append.
func (s *Store) Stats() Stats {
	n := 0
	byChoreo := map[string]int{}
	var laneRejects []uint64
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		es := make([]*entry, 0, len(sh.entries))
		for _, e := range sh.entries {
			es = append(es, e)
		}
		sh.mu.RUnlock()
		n += len(es)
		for _, e := range es {
			count := int64(0)
			for j := range e.inst {
				count += e.inst[j].n.Load()
			}
			byChoreo[e.id] = int(count)
			e.ingMu.Lock()
			ing := e.ing
			e.ingMu.Unlock()
			if ing != nil {
				for lane, r := range ing.Stats().LaneRejects {
					for len(laneRejects) <= lane {
						laneRejects = append(laneRejects, 0)
					}
					laneRejects[lane] += r
				}
			}
		}
	}
	total := 0
	for _, c := range byChoreo {
		total += c
	}
	st := Stats{
		Choreographies:          n,
		ConsistencyHits:         s.consHits.Load(),
		ConsistencyMisses:       s.consMisses.Load(),
		ViewHits:                s.viewHits.Load(),
		ViewMisses:              s.viewMisses.Load(),
		Commits:                 s.commits.Load(),
		Conflicts:               s.conflicts.Load(),
		Evolutions:              s.evolutions.Load(),
		TrackedInstances:        total,
		InstancesByChoreography: byChoreo,
		EventsIngested:          s.eventsIngested.Load(),
		IngestRejected:          s.ingestRejected.Load(),
		OnlineMigrations:        s.onlineMigrations.Load(),
		IngestLaneRejects:       laneRejects,
	}
	if err := s.Degraded(); err != nil {
		st.Degraded = true
		st.LastError = err.Error()
	}
	return st
}
