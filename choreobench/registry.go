package main

import (
	"context"
	"fmt"
	"time"
)

// registryWorld is a registry of copies of the five corpus
// choreographies, read by consistency checks and a minority of
// choreography GETs. Nothing is written after provisioning, so every
// answer comes from snapshots and the memoized consistency results.
type registryWorld struct {
	b      *bench
	e      *env
	prefix string
	ids    []string
	// pairs and parties are each choreography's interacting-pair and
	// party counts, which every answer must repeat.
	pairs, parties []int
}

func buildRegistry(ctx context.Context, b *bench, e *env, prefix string, copies int) (world, error) {
	w := &registryWorld{b: b, e: e, prefix: prefix}
	var css []*corpusScenario
	for c := 0; c < copies; c++ {
		for _, cs := range b.kit.scenarios {
			w.ids = append(w.ids, fmt.Sprintf("%sreg-%s-%d", prefix, cs.sc.Name, c))
			css = append(css, cs)
		}
	}
	if err := parallel(len(w.ids), func(i int) error { return b.provision(ctx, e, w.ids[i], css[i], 0) }); err != nil {
		return nil, err
	}
	for _, id := range w.ids {
		snap, err := e.st.Snapshot(ctx, id)
		if err != nil {
			return nil, err
		}
		w.pairs = append(w.pairs, len(snap.InteractingPairs()))
		w.parties = append(w.parties, snap.NumParties())
	}
	// Warm-up: one check and one GET of every choreography fill the
	// views and the consistency-result cache.
	err := parallel(len(w.ids), func(i int) error {
		if _, err := e.cl.Check(ctx, w.ids[i]); err != nil {
			return err
		}
		_, err := e.cl.Choreography(ctx, w.ids[i])
		return err
	})
	return w, err
}

func (w *registryWorld) clients() [2]opFunc {
	var ops [2]opFunc
	for c := range ops {
		rng := clientSeed(w.b.cfg.seed, w.prefix+"registry", c)
		n := 0
		ops[c] = func(ctx context.Context, rec *recorder) {
			n++
			i := rng.Intn(len(w.ids))
			if rng.Intn(10) == 0 {
				w.get(ctx, rec, i)
			} else {
				w.check(ctx, rec, i, n)
			}
		}
	}
	return ops
}

func (w *registryWorld) check(ctx context.Context, rec *recorder, i, n int) {
	id := w.ids[i]
	octx, sid := w.b.tr.op(ctx)
	t0 := time.Now()
	rep, err := w.e.cl.Check(octx, id)
	rec.observe("check", t0, err)
	if err != nil {
		return
	}
	if !rep.Consistent || rep.Version != 1 || len(rep.Pairs) != w.pairs[i] {
		w.b.gate.failf("check %s: consistent %v version %d pairs %d, want true 1 %d",
			id, rep.Consistent, rep.Version, len(rep.Pairs), w.pairs[i])
	}
	if w.b.sampled(n) {
		w.b.replayCheck(ctx, w.e, sid, id, allCached(rep))
	}
}

func (w *registryWorld) get(ctx context.Context, rec *recorder, i int) {
	id := w.ids[i]
	t0 := time.Now()
	info, err := w.e.cl.Choreography(ctx, id)
	rec.observe("get", t0, err)
	if err != nil {
		return
	}
	if info.Version != 1 || len(info.Parties) != w.parties[i] {
		w.b.gate.failf("get %s: version %d parties %d, want 1 %d", id, info.Version, len(info.Parties), w.parties[i])
	}
}

func (w *registryWorld) verify(context.Context) error { return nil }
