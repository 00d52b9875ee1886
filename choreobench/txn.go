package main

import (
	"context"
	"fmt"
	"time"

	"repro/internal/migrate"
	"repro/internal/server"
)

// txnWorld gives each client its own copy of every corpus choreography,
// each tracking factor replicas of the scripted instances; a client op
// is one controlled-evolution transaction on one copy.
type txnWorld struct {
	b      *bench
	e      *env
	prefix string
	factor int
	copies [2][]*txnCopy // per client, per corpus scenario
}

type txnCopy struct {
	id      string
	cs      *corpusScenario
	version uint64
}

func buildTxn(ctx context.Context, b *bench, e *env, prefix string, factor int) (world, error) {
	w := &txnWorld{b: b, e: e, prefix: prefix, factor: factor}
	var all []*txnCopy
	for c := range w.copies {
		for _, cs := range b.kit.scenarios {
			cp := &txnCopy{id: fmt.Sprintf("%stxn-%d-%s", prefix, c, cs.sc.Name), cs: cs, version: 1}
			w.copies[c] = append(w.copies[c], cp)
			all = append(all, cp)
		}
	}
	err := parallel(len(all), func(i int) error { return b.provision(ctx, e, all[i].id, all[i].cs, factor) })
	return w, err
}

func (w *txnWorld) clients() [2]opFunc {
	var ops [2]opFunc
	for c := range ops {
		episodes := newDeck(clientSeed(w.b.cfg.seed, w.prefix+"txn", c), len(w.b.kit.episodes))
		copies := make(map[*corpusScenario]*txnCopy)
		for _, cp := range w.copies[c] {
			copies[cp.cs] = cp
		}
		n := 0
		ops[c] = func(ctx context.Context, rec *recorder) {
			n++
			ce := w.b.kit.episodes[episodes.draw()]
			w.transaction(ctx, rec, copies[ce.cs], ce, n)
		}
	}
	return ops
}

// transaction runs the paper's loop on one copy: evolve the episode,
// commit it, apply each scripted partner adaptation as that partner's
// own evolve + commit, re-check consistency, sweep every instance with
// a bulk migration, and restore the base processes with one
// parties:batch call. The transaction time runs from the evolve
// request to the end of the sweep.
func (w *txnWorld) transaction(ctx context.Context, rec *recorder, cp *txnCopy, ce *corpusEpisode, n int) {
	t0 := time.Now()
	ok := w.evolveCommit(ctx, rec, cp, ce.ep.Party, ce.wire, ce, n) &&
		w.adapt(ctx, rec, cp, ce, n) &&
		w.recheck(ctx, rec, cp, n) &&
		w.migrate(ctx, rec, cp, ce, n)
	if ok {
		rec.observe("txn", t0, nil)
	} else {
		rec.fail("txn")
	}
	w.restore(ctx, rec, cp)
}

// evolveCommit analyzes one party's ops and commits the analysis. A
// non-nil ce is the scripted episode whose manifest the analysis must
// match.
func (w *txnWorld) evolveCommit(ctx context.Context, rec *recorder, cp *txnCopy, party string, wire []server.OpJSON, ce *corpusEpisode, n int) bool {
	resp, ok := evolveCommit(ctx, w.b, w.e, rec, cp.id, cp.cs, party, wire, ce, n)
	if ok {
		cp.version++
		if resp.BaseVersion != cp.version-1 {
			w.b.gate.failf("evolve %s: base version %d, want %d", cp.id, resp.BaseVersion, cp.version-1)
		}
	}
	return ok
}

// evolveCommit is the evolve + commit pair both the transaction and
// the ingest workload's episode ops send.
func evolveCommit(ctx context.Context, b *bench, e *env, rec *recorder, id string, cs *corpusScenario,
	party string, wire []server.OpJSON, ce *corpusEpisode, n int) (*server.EvolveOpsResponse, bool) {
	octx, sid := b.tr.op(ctx)
	t := time.Now()
	resp, err := e.cl.EvolveOps(octx, id, party, wire)
	rec.observe("evolve", t, err)
	if err != nil {
		return nil, false
	}
	if ce != nil {
		if err := checkAnalysis(ce, resp); err != nil {
			b.gate.failf("evolve %s: %v", id, err)
		}
	}
	sampled := b.sampled(n)
	if sampled {
		b.replayEvolve(ctx, e, sid, id, cs, party, wire)
	}
	octx, sid = b.tr.op(ctx)
	t = time.Now()
	_, err = e.cl.CommitIfMatch(octx, resp.Evolution, resp.BaseVersion)
	rec.observe("commit", t, err)
	if err != nil {
		return nil, false
	}
	if sampled {
		b.replayCommit(ctx, e, sid, id, party)
	}
	return resp, true
}

func (w *txnWorld) adapt(ctx context.Context, rec *recorder, cp *txnCopy, ce *corpusEpisode, n int) bool {
	for _, ad := range ce.adapt {
		if !w.evolveCommit(ctx, rec, cp, ad.party, ad.wire, nil, n) {
			return false
		}
	}
	return true
}

// recheck requires the adapted choreography to be consistent again.
func (w *txnWorld) recheck(ctx context.Context, rec *recorder, cp *txnCopy, n int) bool {
	octx, sid := w.b.tr.op(ctx)
	t := time.Now()
	rep, err := w.e.cl.Check(octx, cp.id)
	rec.observe("check", t, err)
	if err != nil {
		return false
	}
	if !rep.Consistent || rep.Version != cp.version {
		w.b.gate.failf("post-adaptation check %s: consistent %v version %d, want true %d", cp.id, rep.Consistent, rep.Version, cp.version)
	}
	if w.b.sampled(n) {
		w.b.replayCheck(ctx, w.e, sid, cp.id, allCached(rep))
	}
	return true
}

// migrate starts a bulk migration with the server's default worker
// count and waits on the job itself: polling over HTTP would round the
// sweep up to the poll interval.
func (w *txnWorld) migrate(ctx context.Context, rec *recorder, cp *txnCopy, ce *corpusEpisode, n int) bool {
	octx, sid := w.b.tr.op(ctx)
	t := time.Now()
	jobJSON, err := w.e.cl.StartMigration(octx, cp.id, 0)
	var view migrate.View
	if err == nil {
		var job *migrate.Job
		if job, err = w.e.st.MigrationJob(ctx, cp.id, jobJSON.Job); err == nil {
			view, err = job.Wait(ctx)
		}
	}
	rec.observe("migrate", t, err)
	if err != nil {
		return false
	}
	want := len(ce.ep.Stranded) * w.factor
	if view.Status != migrate.StatusDone || view.TargetVersion != cp.version || view.NonReplayable+view.Unviable != want {
		w.b.gate.failf("sweep %s after %s: status %s target %d stranded %d, want done %d %d",
			cp.id, ce.ep.Name, view.Status, view.TargetVersion, view.NonReplayable+view.Unviable, cp.version, want)
	}
	if w.b.sampled(n) {
		w.b.replayMigrate(ctx, w.e, sid, cp.id)
	}
	return true
}

// restore puts the base processes back with one parties:batch call.
func (w *txnWorld) restore(ctx context.Context, rec *recorder, cp *txnCopy) {
	t := time.Now()
	resp, err := w.e.cl.RegisterParties(ctx, cp.id, cp.cs.sc.Parties, nil)
	rec.observe("restore", t, err)
	if err != nil {
		return
	}
	w.b.replayUnmarshal(0, cp.cs)
	cp.version = resp.Version
}

func (w *txnWorld) verify(context.Context) error { return nil }
