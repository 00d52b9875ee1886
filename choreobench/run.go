package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"

	"repro/internal/store"
)

// sizing is one workload's population and op counts.
type sizing struct {
	size  int // registry copies, or replicas per scripted instance
	warm  int // warm-up ops per client, part of set-up
	slice int // ops per client on the recovery store
	// probeSize and probe are the population and the ops per client
	// when the workload runs as another workload's probe.
	probeSize, probe int
}

// workloadDef describes one workload.
type workloadDef struct {
	build func(ctx context.Context, b *bench, e *env, prefix string, size int) (world, error)
	full  sizing
	small sizing // shrunk sizes for the tests
	// ops lists the op classes that count as the workload's ops.
	ops []string
	// native lists the end-to-end metrics the workload measures in its
	// timed phase; probes lists, in order, the workloads whose probes
	// supply the rest: each the metrics native to it that neither the
	// workload nor an earlier probe measures.
	native []string
	probes []string
}

var workloads = map[string]*workloadDef{
	"registry-read": {
		build:  buildRegistry,
		full:   sizing{size: 40, warm: 200, slice: 2000, probeSize: 40, probe: 20000},
		small:  sizing{size: 2, warm: 20, slice: 100, probeSize: 1, probe: 100},
		ops:    []string{"check", "get"},
		native: []string{"check_p50_us", "check_p99_us"},
		probes: []string{"evolve-txn", "ingest-stream"},
	},
	"evolve-txn": {
		build:  buildTxn,
		full:   sizing{size: 400, warm: 5, slice: 15, probeSize: 20, probe: 1200},
		small:  sizing{size: 4, warm: 2, slice: 4, probeSize: 2, probe: 10},
		ops:    []string{"txn"},
		native: []string{"check_p50_us", "evolve_p50_us", "evolve_p90_us", "commit_p50_us", "commit_p90_us", "migrate_p50_ms", "txn_p50_ms", "txn_p90_ms"},
		probes: []string{"registry-read", "ingest-stream"},
	},
	"ingest-stream": {
		build:  buildIngest,
		full:   sizing{size: 400, warm: 50, slice: 400, probeSize: 10, probe: 12000},
		small:  sizing{size: 4, warm: 10, slice: 64, probeSize: 2, probe: 64},
		ops:    []string{"ingest", "evolve", "commit", "restore", "stats"},
		native: []string{"commit_p50_us", "ingest_events_per_s", "ingest_p50_us", "ingest_p99_us"},
		probes: []string{"registry-read", "evolve-txn"},
	},
}

func workloadNames() []string {
	var out []string
	for name := range workloads {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// latencyMetrics maps each latency metric to its op class, quantile,
// scale (ns per unit) and unit.
var latencyMetrics = map[string]struct {
	class string
	q     float64
	scale float64
	unit  string
}{
	"check_p50_us":   {"check", 0.50, 1e3, "us"},
	"check_p99_us":   {"check", 0.99, 1e3, "us"},
	"evolve_p50_us":  {"evolve", 0.50, 1e3, "us"},
	"evolve_p90_us":  {"evolve", 0.90, 1e3, "us"},
	"commit_p50_us":  {"commit", 0.50, 1e3, "us"},
	"commit_p90_us":  {"commit", 0.90, 1e3, "us"},
	"migrate_p50_ms": {"migrate", 0.50, 1e6, "ms"},
	"txn_p50_ms":     {"txn", 0.50, 1e6, "ms"},
	"txn_p90_ms":     {"txn", 0.90, 1e6, "ms"},
	"ingest_p50_us":  {"ingest", 0.50, 1e3, "us"},
	"ingest_p99_us":  {"ingest", 0.99, 1e3, "us"},
}

func (b *bench) sizes(name string) sizing {
	if b.cfg.small {
		return workloads[name].small
	}
	return workloads[name].full
}

// sampled reports whether a traced run replays the n-th op of a
// client: every op outside the timed phase (so counts cover a fixed
// op set), every 16th inside it.
func (b *bench) sampled(n int) bool {
	return b.tr != nil && (b.tr.phase.Load() != phaseMain || n%16 == 0)
}

// setUp opens a fresh env, provisions the workload and warms it up;
// its duration is one set-up sample.
func (b *bench) setUp(ctx context.Context, rep *report) (*env, world, [2]opFunc, error) {
	b.tr.setPhase(phaseSetup)
	runtime.GC()
	t0 := time.Now()
	e, err := b.newEnv()
	if err != nil {
		return nil, nil, [2]opFunc{}, err
	}
	name := b.cfg.workload
	sz := b.sizes(name)
	w, err := workloads[name].build(ctx, b, e, "", sz.size)
	if err != nil {
		e.discard()
		return nil, nil, [2]opFunc{}, fmt.Errorf("provisioning %s: %w", name, err)
	}
	ops := w.clients()
	drive(ctx, ops, sz.warm, 0)
	rep.setups = append(rep.setups, time.Since(t0))
	return e, w, ops, nil
}

// setUpOnly is a set-up whose store only serves the set-up time.
func (b *bench) setUpOnly(ctx context.Context, rep *report) error {
	e, _, _, err := b.setUp(ctx, rep)
	if err != nil {
		return err
	}
	return e.discard()
}

// rateWindow is the window throughput is counted over.
const rateWindow = 500 * time.Millisecond

// segments is how many segments each latency percentile is a median
// over: each probe runs this many rounds, a share of its ops each time,
// at different points of the run, and the timed phase is cut into this
// many time slices.
const segments = 5

// execute runs one workload. Set-ups, recoveries and probe rounds are
// spread over the run, around the one timed phase, and each of their
// metrics is a median over those repetitions: load from outside the
// process that comes and goes within a run then moves one repetition,
// not the figure.
func (b *bench) execute(ctx context.Context, wl *workloadDef) (*report, error) {
	rep := &report{endToEnd: map[string]metric{}, ops: map[string]*tally{}, probes: map[string][]clients{}, segments: map[string]floats{}}
	rec, err := b.recoveryStore(ctx, rep, wl)
	if err != nil {
		return nil, err
	}
	reopen := rec.reopen
	probe := func() error { return b.probeRound(ctx, rep, wl) }
	setUp := func() error { return b.setUpOnly(ctx, rep) }
	timed := func() error { return b.timed(ctx, rep, wl) }
	for _, step := range []func() error{reopen, probe, setUp, reopen, probe, reopen, setUp, timed, reopen, probe, reopen, setUp, probe, reopen, probe, reopen} {
		if err := step(); err != nil {
			return nil, err
		}
	}
	if err := rec.finish(); err != nil {
		return nil, err
	}
	rep.endToEnd["setup_s"] = metric{medianDuration(rep.setups).Seconds(), "s"}
	rep.segments["setup_s"] = seconds(rep.setups)
	for _, pname := range wl.probes {
		for _, m := range workloads[pname].native {
			if _, ok := rep.endToEnd[m]; !ok {
				b.measure(rep, m, rep.probes[pname])
			}
		}
	}
	return rep, nil
}

// timed sets up the timed store and runs the timed phase on it.
func (b *bench) timed(ctx context.Context, rep *report, wl *workloadDef) error {
	e, w, ops, err := b.setUp(ctx, rep)
	if err != nil {
		return err
	}
	b.tr.setPhase(phaseMain)
	st0, rt0 := e.st.Stats(), readRuntime()
	recs := drive(ctx, ops, 0, time.Duration(b.cfg.seconds*float64(time.Second)))
	rep.runtime = readRuntime().sub(rt0)
	rep.stats[phaseMain] = statsDiff(st0, e.st.Stats())
	rep.mainOps = b.account(rep, "main", recs, wl.ops)
	if err := w.verify(ctx); err != nil {
		e.discard()
		return err
	}
	rep.endToEnd["ops_per_s"] = metric{windowRate([]clients{recs}, rateWindow, 1, wl.ops...), "1/s"}
	for _, m := range wl.native {
		b.measure(rep, m, []clients{recs})
	}
	return e.discard()
}

// probeRound runs a share of each probe's ops, each probe on a fresh
// store and server, so no other phase's heap or population leaks into
// it.
func (b *bench) probeRound(ctx context.Context, rep *report, wl *workloadDef) error {
	b.tr.setPhase(phaseProbe)
	for _, pname := range wl.probes {
		runtime.GC()
		e, err := b.newEnv()
		if err != nil {
			return err
		}
		psz := b.sizes(pname)
		pw, err := workloads[pname].build(ctx, b, e, "probe-", psz.probeSize)
		if err != nil {
			e.discard()
			return fmt.Errorf("provisioning probe %s: %w", pname, err)
		}
		pops := pw.clients()
		drive(ctx, pops, psz.warm, 0)
		st0 := e.st.Stats()
		recs := drive(ctx, pops, psz.probe/segments, 0)
		rep.stats[phaseProbe] = rep.stats[phaseProbe].add(statsDiff(st0, e.st.Stats()))
		if err := pw.verify(ctx); err != nil {
			e.discard()
			return err
		}
		b.account(rep, "probe "+pname, recs, nil)
		rep.probes[pname] = append(rep.probes[pname], recs)
		if err := e.discard(); err != nil {
			return err
		}
	}
	return nil
}

// measure computes one end-to-end metric from the rounds of a probe or
// from the timed phase, whose latencies it cuts into time slices.
func (b *bench) measure(rep *report, m string, rounds []clients) {
	if m == "ingest_events_per_s" {
		rep.endToEnd[m] = metric{windowRate(rounds, rateWindow, batchSize, "ingest"), "1/s"}
		return
	}
	if len(rounds) == 1 {
		rounds = rounds[0].slices(segments)
	}
	lm := latencyMetrics[m]
	per, beyond := segmentQuantiles(rounds, lm.class, lm.q)
	if beyond < 10 && !b.cfg.small {
		fmt.Fprintf(os.Stderr, "choreobench: %s: a segment has only %d samples beyond the percentile\n", m, beyond)
	}
	for i := range per {
		per[i] /= lm.scale
	}
	rep.endToEnd[m] = metric{per.median(), lm.unit}
	rep.segments[m] = per
}

// account adds a phase's attempted and failed ops per class and
// returns the successful ops of the listed classes (all when nil).
func (b *bench) account(rep *report, phase string, recs clients, ops []string) int {
	done := 0
	for _, r := range recs {
		for class, s := range r.classes {
			key := phase + "/" + class
			a := rep.ops[key]
			if a == nil {
				a = &tally{}
				rep.ops[key] = a
			}
			a.attempted += s.attempted
			a.failed += s.failed
			if ops == nil || contains(ops, class) {
				done += s.attempted - s.failed
			}
		}
	}
	return done
}

// recoveryStore is the first set-up's store after its fixed op count,
// closed without a checkpoint, as a crash leaves it.
type recoveryStore struct {
	b     *bench
	ctx   context.Context
	rep   *report
	dir   string
	live  storeState
	times []time.Duration
}

// recoveryStore sets up the first store, runs each client's fixed op
// count on it, reads the live heap after a forced GC, records the
// state recovery must reproduce, and closes it.
func (b *bench) recoveryStore(ctx context.Context, rep *report, wl *workloadDef) (*recoveryStore, error) {
	e, w, ops, err := b.setUp(ctx, rep)
	if err != nil {
		return nil, err
	}
	var walSetup []byte
	if b.tr != nil {
		if walSetup, err = os.ReadFile(walPath(e.dir)); err != nil {
			return nil, err
		}
	}
	b.tr.setPhase(phaseSlice)
	recs := drive(ctx, ops, b.sizes(b.cfg.workload).slice, 0)
	rep.sliceOps = b.account(rep, "slice", recs, wl.ops)
	if err := w.verify(ctx); err != nil {
		return nil, err
	}
	live, err := captureState(ctx, e.st)
	if err != nil {
		return nil, err
	}
	rep.endToEnd["live_heap_mb"] = metric{liveHeapMB(), "MB"}
	if err := e.stop(); err != nil {
		return nil, err
	}
	if b.tr != nil {
		if err := b.readBackJournal(rep, walSetup, e.dir); err != nil {
			return nil, err
		}
	}
	return &recoveryStore{b: b, ctx: ctx, rep: rep, dir: e.dir, live: live}, nil
}

// reopen times one store.Open replaying the recovery store's
// write-ahead log, and requires the recovered store to equal the live
// one.
func (r *recoveryStore) reopen() error {
	runtime.GC()
	t0 := time.Now()
	st, err := store.Open(store.WithJournal(r.dir))
	if err != nil {
		return fmt.Errorf("recovering: %w", err)
	}
	r.times = append(r.times, time.Since(t0))
	got, err := captureState(r.ctx, st)
	if cerr := st.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	if d := r.live.diff(got); d != "" {
		r.b.gate.failf("recovered store differs from the live one: %s", d)
	}
	return nil
}

// finish reports the median recovery time and deletes the store.
func (r *recoveryStore) finish() error {
	r.rep.recover = medianDuration(r.times)
	r.rep.endToEnd["recover_s"] = metric{r.rep.recover.Seconds(), "s"}
	r.rep.segments["recover_s"] = seconds(r.times)
	return os.RemoveAll(r.dir)
}

// storeState is what recovery must reproduce: choreography versions,
// party versions and per-party instance counts.
type storeState map[string]string

func captureState(ctx context.Context, st *store.Store) (storeState, error) {
	ids, err := st.IDs(ctx)
	if err != nil {
		return nil, err
	}
	out := storeState{}
	for _, id := range ids {
		snap, err := st.Snapshot(ctx, id)
		if err != nil {
			return nil, err
		}
		desc := fmt.Sprintf("v%d", snap.Version)
		for _, party := range snap.Parties() {
			ps, _ := snap.Party(party)
			recs, err := st.InstanceRecords(ctx, id, party)
			if err != nil {
				return nil, err
			}
			desc += fmt.Sprintf(" %s:v%d/%d", party, ps.Version, len(recs))
		}
		out[id] = desc
	}
	return out, nil
}

func (s storeState) diff(o storeState) string {
	if len(s) != len(o) {
		return fmt.Sprintf("%d choreographies, recovered %d", len(s), len(o))
	}
	for id, d := range s {
		if o[id] != d {
			return fmt.Sprintf("%s: live %q, recovered %q", id, d, o[id])
		}
	}
	return ""
}

func contains(list []string, s string) bool {
	for _, v := range list {
		if v == s {
			return true
		}
	}
	return false
}

// ---- Go runtime ----

func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()) / (1 << 20)
}

// runtimeDelta is the change of the runtime counters over a phase.
type runtimeDelta struct {
	allocBytes    float64
	gcCPU, allCPU float64
	pauses, sched *metrics.Float64Histogram
}

var runtimeNames = []string{
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/pauses:seconds",
	"/sched/latencies:seconds",
}

func readRuntime() runtimeDelta {
	s := make([]metrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return runtimeDelta{
		allocBytes: float64(s[0].Value.Uint64()),
		gcCPU:      s[1].Value.Float64(),
		allCPU:     s[2].Value.Float64(),
		pauses:     s[3].Value.Float64Histogram(),
		sched:      s[4].Value.Float64Histogram(),
	}
}

func (r runtimeDelta) sub(o runtimeDelta) runtimeDelta {
	return runtimeDelta{
		allocBytes: r.allocBytes - o.allocBytes,
		gcCPU:      r.gcCPU - o.gcCPU,
		allCPU:     r.allCPU - o.allCPU,
		pauses:     histSub(r.pauses, o.pauses),
		sched:      histSub(r.sched, o.sched),
	}
}

func histSub(a, b *metrics.Float64Histogram) *metrics.Float64Histogram {
	out := &metrics.Float64Histogram{Buckets: a.Buckets, Counts: make([]uint64, len(a.Counts))}
	for i := range a.Counts {
		out.Counts[i] = a.Counts[i] - b.Counts[i]
	}
	return out
}

// histQuantile returns the upper bound of the bucket holding the
// q-quantile, in seconds.
func histQuantile(h *metrics.Float64Histogram, q float64) float64 {
	var total uint64
	for _, c := range h.Counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	want := uint64(q * float64(total))
	var seen uint64
	for i, c := range h.Counts {
		seen += c
		if seen > want {
			return h.Buckets[i+1]
		}
	}
	return h.Buckets[len(h.Buckets)-1]
}

// ---- store counters ----

// statsDelta is the change of Store.Stats counters over a phase.
type statsDelta struct {
	consHits, consMisses uint64
	viewHits, viewMisses uint64
	events, rejected     uint64
	online               uint64
}

func (d statsDelta) add(o statsDelta) statsDelta {
	return statsDelta{
		consHits: d.consHits + o.consHits, consMisses: d.consMisses + o.consMisses,
		viewHits: d.viewHits + o.viewHits, viewMisses: d.viewMisses + o.viewMisses,
		events: d.events + o.events, rejected: d.rejected + o.rejected,
		online: d.online + o.online,
	}
}

func statsDiff(a, b store.Stats) statsDelta {
	return statsDelta{
		consHits: b.ConsistencyHits - a.ConsistencyHits, consMisses: b.ConsistencyMisses - a.ConsistencyMisses,
		viewHits: b.ViewHits - a.ViewHits, viewMisses: b.ViewMisses - a.ViewMisses,
		events: b.EventsIngested - a.EventsIngested, rejected: b.IngestRejected - a.IngestRejected,
		online: b.OnlineMigrations - a.OnlineMigrations,
	}
}
