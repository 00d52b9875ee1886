package store

// Streaming event ingestion: the glue between the internal/ingest
// engine and the instance shards. Events advance per-instance live
// state (an afsa.Stepper replay state plus deviation point) as they
// arrive, instead of the store replaying whole traces on demand, and
// migrate compliant instances online to the current schema as their
// next event lands.
//
// Apply protocol. Each lane batch is applied by exactly one engine
// worker under the same discipline recordInstances uses — the
// per-entry instance-append lock, then persistMu.RLock, then the
// instance-shard lock — in three phases: simulate (compute every
// per-instance outcome without mutating), append one recEvents WAL
// record carrying the *decided facts* (event labels, instance
// creations with their schema tags, online-migration tag advances),
// then commit the mutations. A failed append applies nothing. Because
// the decisions are journaled as facts, replay never re-runs them —
// which keeps recovery deterministic even though a concurrent commit
// record can land on either side of the event record in the WAL.
//
// Live state is derived data: it is not journaled and not
// checkpointed. Whenever a record's live state is missing or belongs
// to an older party version (after recovery, or after a schema
// commit), it is rebuilt by replaying the record's stored symbols
// (replayTrace) against the party's current memoized compliance
// checker — once per schema change per instance, not per event.

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/afsa"
	"repro/internal/ingest"
	"repro/internal/instance"
	"repro/internal/label"
)

// symUnknown marks a label the choreography's interner has never seen:
// no party automaton can carry it on an edge, so it deviates without
// stepping. It is a resolution result only and is never stored: a
// record keeps such a label as foreign text (see instRecord), and
// symUnknown equals foreignSym(0).
const symUnknown = label.Symbol(-1)

// instLive is one record's streaming runtime state, valid against one
// party version. Values are immutable once published on a record.
type instLive struct {
	// pv is the PartyState.Version the checker (and state) belong to.
	pv  uint64
	chk *instance.Checker
	// state is the replay state after the whole trace; afsa.None once
	// the trace deviated.
	state afsa.StateID
	// dev is the 0-based trace index of the first deviating message,
	// -1 while the trace replays.
	dev int
}

// status classifies the live state through its checker.
func (lv *instLive) status() instance.Status {
	if lv.dev >= 0 {
		return instance.NonReplayable
	}
	return lv.chk.StatusAt(lv.state)
}

// rebuildLive replays a record's full stored trace against chk,
// recording the first deviation point.
func rebuildLive(chk *instance.Checker, pv uint64, trace []label.Symbol, foreign []label.Label) instLive {
	q, dev := replayTrace(chk, trace, foreign)
	return instLive{pv: pv, chk: chk, state: q, dev: dev}
}

// defaultIngestWorkers is the per-choreography apply concurrency
// unless WithIngestWorkers overrides it.
const defaultIngestWorkers = 4

// WithIngestWorkers sets the per-choreography ingest apply concurrency
// (n <= 0 keeps the default).
func WithIngestWorkers(n int) Option {
	return func(s *Store) {
		if n > 0 {
			s.ingestWorkers = n
		}
	}
}

// WithIngestQueueCap bounds each ingest lane's queue to n events
// (n <= 0 keeps the engine default); submissions beyond the bound are
// rejected with backpressure.
func WithIngestQueueCap(n int) Option {
	return func(s *Store) {
		if n > 0 {
			s.ingestQueueCap = n
		}
	}
}

// ingestEngine returns e's lazily created event engine. Lanes equal
// the instance-shard fan-out with the identical hash, so one lane
// batch always lands in exactly one instance shard.
func (s *Store) ingestEngine(e *entry) *ingest.Engine {
	e.ingMu.Lock()
	defer e.ingMu.Unlock()
	if e.ing == nil {
		workers := s.ingestWorkers
		if workers <= 0 {
			workers = defaultIngestWorkers
		}
		e.ing = ingest.New(ingest.Config{
			Lanes:    instShardCount,
			Workers:  workers,
			QueueCap: s.ingestQueueCap,
		}, func(lane int, evs []ingest.Event) error {
			return s.applyIngest(e, lane, evs)
		})
	}
	return e.ing
}

// closeIngest shuts e's engine down (idempotent, nil-safe).
func (e *entry) closeIngest() {
	e.ingMu.Lock()
	ing := e.ing
	e.ingMu.Unlock()
	if ing != nil {
		ing.Close()
	}
}

// IngestEvents feeds one batch of observed conversation messages into
// the choreography's streaming event path and blocks until every event
// is applied (and, on a durable store, journaled): per-instance live
// state advances, unknown instances start being tracked at the current
// schema, and instances at a compliant point whose schema tag trails
// the current snapshot migrate online. Events of one instance are
// applied in submission order; instances hashing to different lanes
// proceed in parallel.
//
// Overload is explicit: when a lane's bounded queue cannot take the
// batch, nothing is enqueued and the error wraps
// ingest.ErrBackpressure with a retry-after hint
// (*ingest.BackpressureError) — the caller should back off and retry
// the whole batch. It returns the number of events applied (always
// len(events) on success).
func (s *Store) IngestEvents(ctx context.Context, id string, events []ingest.Event) (int, error) {
	if err := ctxErr(ctx); err != nil {
		return 0, err
	}
	if len(events) == 0 {
		return 0, fmt.Errorf("%w: empty event batch", ErrInvalid)
	}
	release, err := s.beginMutation()
	if err != nil {
		return 0, err
	}
	defer release()
	e, err := s.entry(id)
	if err != nil {
		return 0, err
	}
	snap := e.snap.Load()
	for _, ev := range events {
		if ev.Party == "" || ev.Instance == "" || ev.Label == "" {
			return 0, fmt.Errorf("%w: events need party, instance and label", ErrInvalid)
		}
		// Parties are never removed from a choreography, so validating
		// against the current snapshot holds at apply time too.
		if _, ok := snap.parties[ev.Party]; !ok {
			return 0, fmt.Errorf("%w: party %q in choreography %q", ErrNotFound, ev.Party, id)
		}
	}
	if err := s.ingestEngine(e).Submit(ctx, events); err != nil {
		if errors.Is(err, ingest.ErrBackpressure) {
			s.ingestRejected.Add(uint64(len(events)))
		}
		return 0, err
	}
	s.eventsIngested.Add(uint64(len(events)))
	return len(events), nil
}

// pendingInst is one instance's simulated outcome within one lane
// batch — nothing on the record changes until the WAL append succeeds.
type pendingInst struct {
	rec    *instRecord // nil when this batch creates the instance
	party  string
	id     string
	schema uint64 // creation tag, or the record's tag at batch start
	live   instLive
	added  []int32 // the instance's events, as indexes into the batch
	tagTo  uint64  // online-migration advance decided this batch (0 = none)
}

// advance steps one event through the pending instance's simulated
// replay: step the checker (an unknown symbol or a missing transition
// pins the deviation at pos), then decide an online-migration tag
// advance — the instance is at a compliant point under the current
// schema and its tag trails it (tags never downgrade; the advance is
// journaled as a fact by the caller).
//
// This runs once per event under the shard lock; TestAdvanceAllocs
// pins it at zero allocations.
func (p *pendingInst) advance(sym label.Symbol, pos int, snapVersion uint64) {
	if p.live.dev < 0 {
		q := afsa.None
		if sym != symUnknown {
			q = p.live.chk.StepSym(p.live.state, sym)
		}
		if q == afsa.None {
			p.live.dev = pos
			p.live.state = afsa.None
		} else {
			p.live.state = q
		}
	}
	if p.schema < snapVersion && p.live.status() == instance.Migratable {
		p.tagTo = snapVersion
		p.schema = snapVersion
	}
}

// applyIngest applies one lane batch to its instance shard; it runs on
// an engine worker, at most once concurrently per shard. See the file
// comment for the three-phase protocol.
func (s *Store) applyIngest(e *entry, shard int, evs []ingest.Event) error {
	snap := e.snap.Load()
	// Prefetch the per-party checkers before taking any lock: the
	// first batch after a commit pays the determinization here, not
	// inside the shard critical section.
	chks := map[string]*instance.Checker{}
	for _, ev := range evs {
		if _, ok := chks[ev.Party]; ok {
			continue
		}
		ps, ok := snap.parties[ev.Party]
		if !ok {
			return fmt.Errorf("%w: party %q in choreography %q", ErrNotFound, ev.Party, e.id)
		}
		chk, err := ps.complianceChecker()
		if err != nil {
			return err
		}
		chks[ev.Party] = chk
	}
	// Resolve every event's label to its shared-interner symbol before
	// taking any lock, through one memo per batch; an unknown label
	// (symUnknown) deviates without stepping and is stored as text.
	syms := newLabelSyms(snap.syms)
	evSyms := make([]label.Symbol, len(evs))
	for i, ev := range evs {
		evSyms[i] = syms.of(ev.Label)
	}

	// Lock discipline of recordInstances: instance-append lock, then
	// the persist read lock, then the shard lock — WAL order equals
	// shard-slice append order, interleaved correctly with
	// AddInstances.
	if s.jnl != nil {
		e.instAppendMu.Lock()
		defer e.instAppendMu.Unlock()
		s.persistMu.RLock()
		defer s.persistMu.RUnlock()
	}
	sh := &e.inst[shard]
	sh.mu.Lock()
	defer sh.mu.Unlock()

	// Phase 1: simulate.
	pend := map[instIdxKey]*pendingInst{}
	var order []*pendingInst
	for i, ev := range evs {
		k := instIdxKey{ev.Party, ev.Instance}
		p := pend[k]
		if p == nil {
			ps := snap.parties[ev.Party]
			chk := chks[ev.Party]
			if rec := sh.idx[k]; rec != nil {
				p = &pendingInst{rec: rec, party: ev.Party, id: ev.Instance, schema: rec.schema}
				if rec.live != nil && rec.live.pv == ps.Version {
					p.live = *rec.live
				} else {
					p.live = rebuildLive(chk, ps.Version, rec.trace, rec.foreign)
				}
			} else {
				p = &pendingInst{
					party: ev.Party, id: ev.Instance, schema: snap.Version,
					live: instLive{pv: ps.Version, chk: chk, state: chk.Start(), dev: -1},
				}
			}
			pend[k] = p
			order = append(order, p)
		}
		pos := len(p.added)
		if p.rec != nil {
			pos += len(p.rec.trace)
		}
		p.added = append(p.added, int32(i))
		p.advance(evSyms[i], pos, snap.Version)
	}

	// Phase 2: journal the batch with its decided facts.
	rec := recEvents{ID: e.id, Shard: shard, Events: make([]recEvent, 0, len(evs))}
	for _, ev := range evs {
		rec.Events = append(rec.Events, recEvent{Party: ev.Party, Inst: ev.Instance, Label: ev.Label})
	}
	for _, p := range order {
		switch {
		case p.rec == nil:
			rec.Created = append(rec.Created, recEvtCreate{Party: p.party, Inst: p.id, Schema: p.schema})
		case p.tagTo > 0:
			rec.Target = snap.Version
			rec.Tags = append(rec.Tags, tagRef{Party: p.party, Ref: p.rec.ref})
		}
	}
	if err := s.appendEventsWAL(&rec); err != nil {
		return err
	}

	// Phase 3: commit.
	for _, p := range order {
		r := p.rec
		if r == nil {
			r = &instRecord{id: p.id, schema: p.schema}
			sh.appendLocked(p.party, r)
		}
		for _, i := range p.added {
			r.appendMsg(evSyms[i], evs[i].Label)
		}
		if p.tagTo > r.schema {
			r.schema = p.tagTo
			s.onlineMigrations.Add(1)
		}
		lv := p.live
		r.live = &lv
	}
	return nil
}

// InstanceState is one tracked instance's streaming runtime state, as
// classified against the party's current public process.
type InstanceState struct {
	Party string
	ID    string
	// TracePos is the number of messages observed so far.
	TracePos int
	// Schema is the choreography snapshot version the instance
	// currently complies with (never downgraded).
	Schema uint64
	// Status is the compliance classification against the party's
	// current public process.
	Status instance.Status
	// Deviation is the 0-based trace index of the first message the
	// current public process cannot replay, -1 while compliant.
	Deviation int
}

// InstanceStates returns the streaming runtime state of every tracked
// instance of a party (shard order). Records whose live state is
// missing or stale — recorded by AddInstances, or not touched since
// the last schema commit or recovery — are classified ephemerally
// against the current checker without mutating anything.
func (s *Store) InstanceStates(ctx context.Context, id, party string) ([]InstanceState, error) {
	if err := ctxErr(ctx); err != nil {
		return nil, err
	}
	e, err := s.entry(id)
	if err != nil {
		return nil, err
	}
	snap := e.snap.Load()
	ps, ok := snap.parties[party]
	if !ok {
		return nil, fmt.Errorf("%w: party %q in choreography %q", ErrNotFound, party, id)
	}
	chk, err := ps.complianceChecker()
	if err != nil {
		return nil, err
	}
	type capture struct {
		id      string
		trace   []label.Symbol
		foreign []label.Label
		schema  uint64
		live    *instLive
	}
	var caps []capture
	e.eachRecord(party, func(rec *instRecord, _ []label.Label) {
		caps = append(caps, capture{id: rec.id, trace: rec.trace, foreign: rec.foreign, schema: rec.schema, live: rec.live})
	})
	out := make([]InstanceState, 0, len(caps))
	for _, c := range caps {
		lv := instLive{}
		if c.live != nil && c.live.pv == ps.Version {
			lv = *c.live
		} else {
			lv = rebuildLive(chk, ps.Version, c.trace, c.foreign)
		}
		out = append(out, InstanceState{
			Party: party, ID: c.id, TracePos: len(c.trace),
			Schema: c.schema, Status: lv.status(), Deviation: lv.dev,
		})
	}
	return out, nil
}
