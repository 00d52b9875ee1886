package store

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/bpel"
	"repro/internal/change"
	"repro/internal/core"
	"repro/internal/mapping"
	"repro/internal/wsdl"
)

// Evolution is an analyzed-but-not-committed change: the outcome of
// Evolve, pinned to the snapshot version it was computed against.
// Committing it succeeds only while the choreography has not advanced
// (optimistic concurrency).
type Evolution struct {
	core.Evolution
	// Choreography and BaseVersion pin the analysis to its snapshot.
	Choreography string
	BaseVersion  uint64
	// Ops are the analyzed operations — one change transaction applied
	// in order; classification, plans and suggestions describe the
	// combined delta.
	Ops []change.Operation
	// Registry is the operation registry re-inferred with the changed
	// process; the analysis derived and resolved suggestions through it.
	Registry *wsdl.Registry
	// PartnerVersions records each partner's party version at analysis
	// time: the propagation plans and suggestion paths are only valid
	// against these versions (ApplyOps checks them).
	PartnerVersions map[string]uint64
}

// Evolve analyzes the application of ops — one change transaction,
// applied in order — to party's private process against the current
// snapshot, without mutating anything: re-derive the public view once
// for the combined delta, classify per partner (Defs. 5/6), and for
// variant changes compute propagation plans and adaptation suggestions
// (Secs. 5.1–5.3). Concurrent Evolve calls on the same choreography
// proceed in parallel; each works on the snapshot it loaded. The
// expensive per-partner loop honors ctx cancellation.
func (s *Store) Evolve(ctx context.Context, id, party string, ops ...change.Operation) (*Evolution, error) {
	snap, err := s.Snapshot(ctx, id)
	if err != nil {
		return nil, err
	}
	return s.evolveSnapshot(ctx, snap, party, ops)
}

func (s *Store) evolveSnapshot(ctx context.Context, snap *Snapshot, party string, ops []change.Operation) (*Evolution, error) {
	if len(ops) == 0 {
		return nil, fmt.Errorf("%w: no operations to analyze", ErrInvalid)
	}
	s.evolutions.Add(1)
	originator, ok := snap.parties[party]
	if !ok {
		return nil, fmt.Errorf("%w: party %q in choreography %q", ErrNotFound, party, snap.ID)
	}
	newPrivate := originator.Private
	for _, op := range ops {
		next, err := op.Apply(newPrivate)
		if err != nil {
			return nil, fmt.Errorf("%w: applying %s: %v", ErrInvalid, op, err)
		}
		newPrivate = next
	}
	// The changed process may introduce operations the current
	// registry has never seen (e.g. the paper's cancelOp), so the
	// registry is re-inferred with the candidate process substituted.
	reg, err := mapping.InferRegistry(snap.privatesWith([]*bpel.Process{newPrivate}), snap.syncOps)
	if err != nil {
		return nil, invalid(err)
	}
	if err := ctxErr(ctx); err != nil {
		return nil, err
	}
	res, err := mapping.Derive(newPrivate, reg)
	if err != nil {
		return nil, invalid(fmt.Errorf("deriving changed public process: %w", err))
	}
	// The candidate's public is not reinterned into snap.syms: only the
	// commit path moves a public onto the shared interner. The analysis
	// still grows it, because the operators that align the candidate's
	// symbols with a partner's intern the candidate's new labels there
	// (one uncommitted cancel change adds A#B#cancelOp), so the shared
	// interner holds every label any analysis has met.
	cand := core.NewParty(newPrivate, res)
	analysis, err := core.Evolve(ctx, partySet{snap: snap, st: s}, &cand, reg)
	if err != nil {
		return nil, err
	}
	evo := &Evolution{
		Evolution:       analysis,
		Choreography:    snap.ID,
		BaseVersion:     snap.Version,
		Ops:             ops,
		Registry:        reg,
		PartnerVersions: make(map[string]uint64, len(analysis.Impacts)),
	}
	for _, im := range evo.Impacts {
		evo.PartnerVersions[im.Partner] = snap.parties[im.Partner].Version
	}
	return evo, nil
}

// invalid marks err, a client's process that registry inference or
// derivation refused, as ErrInvalid. A derivation that fails its own
// invariants (mapping.ErrInternal) stays an internal error.
func invalid(err error) error {
	if errors.Is(err, mapping.ErrInternal) {
		return err
	}
	return fmt.Errorf("%w: %v", ErrInvalid, err)
}

// CommitEvolution publishes an analyzed evolution. It fails with
// ErrConflict when the choreography advanced past evo.BaseVersion —
// the caller re-runs Evolve against the fresh snapshot.
func (s *Store) CommitEvolution(ctx context.Context, evo *Evolution) (*Snapshot, error) {
	snap, _, err := s.CommitEvolutionIdem(ctx, evo, "")
	return snap, err
}

// CommitEvolutionIdem is CommitEvolution with an idempotency key: a
// retry carrying the key of an already-applied commit returns the
// current snapshot and the version that commit published, without
// applying anything (see idem.go). An empty key disables dedup.
func (s *Store) CommitEvolutionIdem(ctx context.Context, evo *Evolution, key string) (*Snapshot, uint64, error) {
	return s.commit(ctx, evo.Choreography, key, func(cur *Snapshot) (*Snapshot, []*bpel.Process, error) {
		if cur.Version != evo.BaseVersion {
			s.conflicts.Add(1)
			return nil, nil, fmt.Errorf("%w: choreography %q at version %d, evolution based on %d",
				ErrConflict, evo.Choreography, cur.Version, evo.BaseVersion)
		}
		next := cur.clone()
		next.Version = cur.Version + 1
		next.Registry = evo.Registry
		// Move the committed public onto the choreography's shared
		// interner (on a clone: the caller may still be reading the
		// analyzed evolution concurrently), so the published party state
		// shares the snapshot-wide symbol space. Only committed labels
		// ever enter the shared interner.
		pub := evo.NewPublic.Clone()
		pub.Reintern(next.syms)
		next.parties[evo.Party] = newPartyState(evo.NewPrivate,
			&mapping.Result{Automaton: pub, Table: evo.NewTable}, cur.parties[evo.Party].Version+1)
		next.computePairs()
		return next, []*bpel.Process{evo.NewPrivate}, nil
	})
}

// ApplyOps applies adaptation operations to a partner's private
// process, re-derives and commits it (steps 4–5 of Secs. 5.2/5.3 —
// explicit, since partner processes are autonomous). A non-zero
// basePartyVersion guards against stale suggestions: the ops carry
// activity paths computed against that version of the partner's
// private process, so the commit fails with ErrConflict when the
// partner has changed since (party versions start at 1; pass 0 to
// skip the check).
func (s *Store) ApplyOps(ctx context.Context, id, partner string, ops []change.Operation, basePartyVersion uint64) (*Snapshot, error) {
	if len(ops) == 0 {
		return nil, fmt.Errorf("%w: no operations to apply", ErrInvalid)
	}
	next, _, err := s.commit(ctx, id, "", func(cur *Snapshot) (*Snapshot, []*bpel.Process, error) {
		ps, ok := cur.parties[partner]
		if !ok {
			return nil, nil, fmt.Errorf("%w: party %q in choreography %q", ErrNotFound, partner, id)
		}
		if basePartyVersion != 0 && ps.Version != basePartyVersion {
			s.conflicts.Add(1)
			return nil, nil, fmt.Errorf("%w: party %q at version %d, suggestions computed against %d",
				ErrConflict, partner, ps.Version, basePartyVersion)
		}
		p := ps.Private
		for _, op := range ops {
			next, err := op.Apply(p)
			if err != nil {
				return nil, nil, fmt.Errorf("%w: adapting %s with %s: %v", ErrInvalid, partner, op, err)
			}
			p = next
		}
		procs := []*bpel.Process{p}
		next, err := s.rebuildAll(ctx, cur, procs)
		return next, procs, err
	})
	return next, err
}
