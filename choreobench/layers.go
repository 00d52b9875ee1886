package main

// Per-layer measurement. Every span here comes from the benchmark's own
// code: after an op completes, a traced run replays the read-only
// public calls of the layers the op went through, on the op's snapshot
// and inputs, as children of the op's client span; benchmark-owned
// journal, ingest and migration engines are fed the workload's inputs.

import (
	"context"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/afsa"
	"repro/internal/bpel"
	"repro/internal/change"
	"repro/internal/core"
	"repro/internal/ingest"
	"repro/internal/instance"
	"repro/internal/journal"
	"repro/internal/label"
	"repro/internal/mapping"
	"repro/internal/migrate"
	"repro/internal/server"
	"repro/internal/store"
	"repro/internal/wsdl"
)

// Replays of calls that read the store's caches count toward its hit
// counters; they are sampled under these names and subtracted.
const (
	replayConsHits    = "replay.consistency_hits"
	replayConsMisses  = "replay.consistency_misses"
	replayViewLookups = "replay.view_lookups"
)

// replayCheck replays a check. The op's own store call is replayed as
// Store.Check when every pair of its answer came from the cache, else
// as Store.CheckUncached; that replay's span (kind "store") is what the
// handler's self time is measured against.
func (b *bench) replayCheck(ctx context.Context, e *env, parent uint64, id string, cached bool) {
	tr := b.tr
	var rep *store.CheckReport
	kind := map[bool]string{true: "store", false: "replay"}
	d := tr.timedKind(parent, kind[cached], "store.check_cached_us", func() { rep, _ = e.st.Check(ctx, id) })
	tr.sample("store.check_cached_us", float64(d)/1e3)
	if rep != nil {
		hits := 0
		for _, p := range rep.Pairs {
			if p.Cached {
				hits++
			}
		}
		tr.sample(replayConsHits, float64(hits))
		tr.sample(replayConsMisses, float64(len(rep.Pairs)-hits))
		tr.sample(replayViewLookups, float64(2*(len(rep.Pairs)-hits)))
	}
	d = tr.timedKind(parent, kind[!cached], "store.check_uncached_us", func() { rep, _ = e.st.CheckUncached(ctx, id) })
	tr.sample("store.check_uncached_us", float64(d)/1e3)
	if rep != nil {
		tr.sample(replayViewLookups, float64(2*len(rep.Pairs)))
	}
	snap, err := e.st.Snapshot(ctx, id)
	if err != nil {
		return
	}
	for _, pair := range snap.InteractingPairs() {
		pa, _ := snap.Party(pair[0])
		pb, _ := snap.Party(pair[1])
		va, vb := pa.Public.View(pair[1]), pb.Public.View(pair[0])
		var prod *afsa.Automaton
		tr.us(parent, "afsa.intersect_us", func() { prod = va.Intersect(vb) })
		tr.us(parent, "afsa.emptiness_us", func() { _, _ = prod.IsEmpty() })
		tr.sample("afsa.product_states", float64(prod.NumStates()))
	}
}

// replayEvolve replays an analyzed evolve on the snapshot it was
// analyzed against (the op's commit has not happened yet): the store
// call itself, then the layer calls it makes.
func (b *bench) replayEvolve(ctx context.Context, e *env, parent uint64, id string, cs *corpusScenario, party string, wire []server.OpJSON) {
	tr := b.tr
	snap, err := e.st.Snapshot(ctx, id)
	if err != nil {
		return
	}
	ops := make([]change.Operation, len(wire))
	for i, o := range wire {
		if ops[i], err = change.Spec(o).Decode(party); err != nil {
			return
		}
	}
	var evo *store.Evolution
	d := tr.timedKind(parent, "store", "store.evolve_us", func() { evo, err = e.st.Evolve(ctx, id, party, ops...) })
	tr.sample("store.evolve_us", float64(d)/1e3)
	if err != nil {
		return
	}
	lookups := 0
	for _, im := range evo.Impacts {
		lookups++
		if im.ViewChanged {
			lookups++
		}
	}
	tr.sample(replayViewLookups, float64(lookups))

	orig, _ := snap.Party(party)
	newPrivate := orig.Private
	tr.us(parent, "change.apply_us", func() {
		for _, op := range ops {
			if newPrivate, err = op.Apply(newPrivate); err != nil {
				return
			}
		}
	})
	if err != nil {
		return
	}
	var privates []*bpel.Process
	for _, name := range snap.Parties() {
		if name == party {
			privates = append(privates, newPrivate)
			continue
		}
		ps, _ := snap.Party(name)
		privates = append(privates, ps.Private)
	}
	var reg *wsdl.Registry
	tr.us(parent, "mapping.infer_registry_us", func() { reg, err = mapping.InferRegistry(privates, cs.sc.SyncOps) })
	if err != nil {
		return
	}
	var res *mapping.Result
	tr.us(parent, "mapping.derive_us", func() { res, err = mapping.Derive(newPrivate, reg) })
	if err != nil {
		return
	}
	tr.sample("mapping.public_states", float64(res.Automaton.NumStates()))
	changed := false
	tr.us(parent, "afsa.equivalent_us", func() { changed = !afsa.Equivalent(orig.Public, res.Automaton) })
	suggestions := 0
	for _, partner := range snap.PartnersOf(party) {
		if !changed {
			break
		}
		pps, _ := snap.Party(partner)
		oldView := orig.Public.View(partner)
		var newView *afsa.Automaton
		tr.us(parent, "afsa.view_us", func() { newView = res.Automaton.View(partner) })
		same := false
		tr.us(parent, "afsa.equivalent_us", func() { same = afsa.Equivalent(oldView, newView) })
		if same {
			continue
		}
		partnerView := pps.Public.View(party)
		var cls core.Classification
		tr.us(parent, "core.classify_us", func() { cls, err = core.Classify(oldView, newView, partnerView) })
		if err != nil || cls.Scope != core.ScopeVariant {
			continue
		}
		var plans []*core.Plan
		tr.us(parent, "core.plan_us", func() { plans = planPropagation(cls, newView, pps, party) })
		sugg := &core.Suggester{Private: pps.Private, Registry: snap.Registry}
		tr.us(parent, "core.suggest_us", func() {
			for _, p := range plans {
				suggestions += len(sugg.Suggest(p))
			}
		})
	}
	tr.sample("core.suggestions_per_evolve", float64(suggestions))
}

// planPropagation makes the propagation plans of a variant change, as
// the store's evolve path does: additive plans on the new view,
// subtractive ones on the view lifted over the partner's foreign
// labels.
func planPropagation(cls core.Classification, newView *afsa.Automaton, partner *store.PartyState, party string) []*core.Plan {
	var plans []*core.Plan
	if cls.Kind.Additive() {
		if p, err := core.PlanAdditive(newView, partner.Public, partner.Table); err == nil {
			plans = append(plans, p)
		}
	}
	if cls.Kind.Subtractive() {
		foreign := label.NewSet()
		for l := range partner.Public.Alphabet() {
			if !l.Involves(party) {
				foreign.Add(l)
			}
		}
		view := newView
		if len(foreign) > 0 {
			view = core.LiftForeign(view, foreign)
		}
		if p, err := core.PlanSubtractive(view, partner.Public, partner.Table); err == nil {
			plans = append(plans, p)
		}
	}
	return plans
}

// replayCommit times what a commit makes every later reader pay once:
// determinizing the committed public process and building its
// compliance checker.
func (b *bench) replayCommit(ctx context.Context, e *env, parent uint64, id, party string) {
	snap, err := e.st.Snapshot(ctx, id)
	if err != nil {
		return
	}
	ps, ok := snap.Party(party)
	if !ok {
		return
	}
	b.tr.us(parent, "afsa.determinize_us", func() { ps.Public.Determinize() })
	b.tr.us(parent, "instance.checker_build_us", func() { _, _ = instance.NewChecker(ps.Public) })
}

// itemSource is a benchmark-owned migration source over a copy of a
// population, sharded like the store's instance shards.
type itemSource struct{ items []migrate.Item }

func (s *itemSource) Shards() int { return 64 }

func (s *itemSource) Load(_ context.Context, shard int) ([]migrate.Item, error) {
	var out []migrate.Item
	for i := shard; i < len(s.items); i += 64 {
		out = append(out, s.items[i])
	}
	return out, nil
}

func (s *itemSource) Commit(context.Context, int, []migrate.Item) error { return nil }

// replayMigrate sweeps a copy of the choreography's population with a
// benchmark-owned migrate.Engine classifying through instance.Checker.
func (b *bench) replayMigrate(ctx context.Context, e *env, parent uint64, id string) {
	tr := b.tr
	snap, err := e.st.Snapshot(ctx, id)
	if err != nil {
		return
	}
	var items []migrate.Item
	chks := map[string]*instance.Checker{}
	for _, party := range snap.Parties() {
		recs, err := e.st.InstanceRecords(ctx, id, party)
		if err != nil {
			return
		}
		ps, _ := snap.Party(party)
		if chks[party], err = instance.NewChecker(ps.Public); err != nil {
			return
		}
		for i, r := range recs {
			items = append(items, migrate.Item{Party: party, Inst: r.Inst, Ref: i})
		}
	}
	if len(items) == 0 {
		return
	}
	d := tr.timed(parent, "instance.Checker.Check", func() {
		for _, it := range items {
			chks[it.Party].Check(it.Inst)
		}
	})
	tr.sample("instance.check_ns_per_instance", float64(d)/float64(len(items)))
	job := migrate.NewJob("bench-"+id, id, snap.Version, 64)
	classify := func(party string, inst instance.Instance) (instance.Status, error) {
		return chks[party].Check(inst), nil
	}
	eng := &migrate.Engine{Workers: 4}
	d = tr.timed(parent, "migrate.Engine.Run", func() { _ = eng.Run(ctx, job, &itemSource{items: items}, classify) })
	tr.sample("migrate.sweep_ms", float64(d)/1e6)
	v := job.Snapshot()
	if v.Total > 0 {
		tr.sample("migrate.stranded_ratio", float64(v.NonReplayable+v.Unviable)/float64(v.Total))
		tr.sample("migrate.swept_instances", float64(v.Total))
	}
}

// replayIngest feeds the batch to a benchmark-owned 64-lane engine with
// a no-op apply, counts its lanes, and steps each event through the
// party's compliance checker from the conversation's state before it.
func (b *bench) replayIngest(ctx context.Context, e *env, parent uint64, id string, cs *corpusScenario, evs []streamEvent) {
	tr := b.tr
	batch := make([]ingest.Event, len(evs))
	lanes := map[int]bool{}
	for i, ev := range evs {
		batch[i] = ingest.Event{Party: ev.party, Instance: ev.id, Label: ev.label}
		lanes[ingest.LaneOf(ev.party, ev.id, ingest.DefaultLanes)] = true
	}
	tr.us(parent, "ingest.submit_us", func() { _ = b.ing.Submit(ctx, batch) })
	tr.sample("ingest.lanes_per_batch", float64(len(lanes)))

	snap, err := e.st.Snapshot(ctx, id)
	if err != nil {
		return
	}
	chks := make([]*instance.Checker, len(evs))
	from := make([]afsa.StateID, len(evs))
	syms := make([]label.Symbol, len(evs))
	byParty := map[string]*instance.Checker{}
	for i, ev := range evs {
		chk := byParty[ev.party]
		if chk == nil {
			ps, _ := snap.Party(ev.party)
			if chk, err = instance.NewChecker(ps.Public); err != nil {
				return
			}
			byParty[ev.party] = chk
		}
		q := chk.Start()
		for _, l := range cs.sc.Instances[ev.tmpl].Trace[:ev.pos] {
			if q == afsa.None {
				break
			}
			q = chk.Step(q, l)
		}
		sym, ok := chk.Symbol(ev.label)
		if !ok {
			q = afsa.None
		}
		chks[i], from[i], syms[i] = chk, q, sym
	}
	var sink afsa.StateID
	d := tr.timed(parent, "instance.Checker.StepSym", func() {
		for i := range evs {
			if from[i] != afsa.None {
				sink ^= chks[i].StepSym(from[i], syms[i])
			}
		}
	})
	_ = sink
	tr.sample("instance.step_ns_per_event", float64(d)/float64(len(evs)))
}

func (b *bench) replayStats(parent uint64, e *env) {
	b.tr.us(parent, "store.stats_us", func() { e.st.Stats() })
}

// replayUnmarshal parses each party XML a parties:batch call sent, for
// every 16th call in the timed phase and every call elsewhere.
func (b *bench) replayUnmarshal(parent uint64, cs *corpusScenario) {
	if b.tr == nil || b.tr.phase.Load() == phaseMain && b.unmarshals.Add(1)%16 != 0 {
		return
	}
	for _, x := range cs.xml {
		b.tr.us(parent, "bpel.unmarshal_us", func() { _, _ = bpel.UnmarshalXML([]byte(x)) })
	}
}

func walPath(dir string) string { return filepath.Join(dir, "wal.log") }

// readBackJournal opens copies of the recovery store's write-ahead log,
// as it stood after set-up and after the fixed op count, counts the
// records and bytes the ops appended, and times appends of those
// records to a benchmark-owned log.
func (b *bench) readBackJournal(rep *report, walSetup []byte, dir string) error {
	read := func(name string, wal []byte) ([]journal.Record, error) {
		cp := filepath.Join(b.dir, name)
		if err := os.MkdirAll(cp, 0o755); err != nil {
			return nil, err
		}
		if err := os.WriteFile(walPath(cp), wal, 0o644); err != nil {
			return nil, err
		}
		l, _, tail, err := journal.Open(cp)
		if err != nil {
			return nil, err
		}
		l.Close()
		return tail, os.RemoveAll(cp)
	}
	setup, err := read("wal-setup", walSetup)
	if err != nil {
		return err
	}
	walAll, err := os.ReadFile(walPath(dir))
	if err != nil {
		return err
	}
	all, err := read("wal-all", walAll)
	if err != nil {
		return err
	}
	if len(all) < len(setup) {
		return fmt.Errorf("write-ahead log shrank from %d to %d records", len(setup), len(all))
	}
	rep.walRecords = len(all)
	recs := all[len(setup):]
	bytes := 0
	for _, r := range recs {
		bytes += len(r.Data)
	}
	b.tr.sample("journal.records_per_op", float64(len(recs))/float64(rep.sliceOps))
	b.tr.sample("journal.bytes_per_op", float64(bytes)/float64(rep.sliceOps))
	if len(recs) == 0 {
		recs = all // a read-only workload appends nothing: time set-up's records
	}
	logDir := filepath.Join(b.dir, "bench-log")
	l, _, _, err := journal.Open(logDir)
	if err != nil {
		return err
	}
	for i, r := range recs {
		if i == 4000 {
			break
		}
		b.tr.us(0, "journal.append_us", func() { _, err = l.Append(r.Data) })
		if err != nil {
			break
		}
	}
	if cerr := l.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	return os.RemoveAll(logDir)
}
