// Package loadgen drives configurable mixed traffic — consistency
// checks, evolution analyses, commit/revert cycles, migration what-ifs
// and event ingestion — against a running choreod server, using the
// scenario corpus as the workload. It reports per-op-class throughput
// and latency quantiles; `choreoctl loadgen` is the CLI front end.
package loadgen

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fault"
	"repro/internal/scenario"
	"repro/internal/server"
	"repro/internal/store"
)

// Mix weighs the op classes; a zero weight disables the class. The
// default mix is read-heavy with a steady trickle of mutations,
// roughly the profile of a choreography registry in production.
type Mix struct {
	Check   int
	Evolve  int
	Commit  int
	Migrate int
	Ingest  int
}

// DefaultMix is used when the config leaves every weight zero.
var DefaultMix = Mix{Check: 4, Evolve: 2, Commit: 1, Migrate: 1, Ingest: 4}

func (m Mix) total() int { return m.Check + m.Evolve + m.Commit + m.Migrate + m.Ingest }

// Config parameterizes one load run.
type Config struct {
	// Addr is the base URL of the choreod server.
	Addr string
	// Scenarios are corpus scenario names (empty = whole corpus).
	Scenarios []string
	// Concurrency is the worker count (default 4).
	Concurrency int
	// Duration bounds the run in wall time; MaxOps in total operations.
	// At least one must be set; whichever trips first stops the run.
	Duration time.Duration
	MaxOps   int64
	// Mix weighs the op classes (zero value = DefaultMix).
	Mix Mix
	// Seed makes the op schedule reproducible.
	Seed int64
	// IngestBatch is the events-per-ingest-op batch size (default 16).
	IngestBatch int
	// Prefix namespaces the choreographies the run creates (default
	// "loadgen"); reruns against the same server reuse them.
	Prefix string
	// Faults injects journal write faults at this per-hit probability
	// (0 disables, must stay below 1). A fault run self-hosts an
	// embedded journaled choreod — Addr must be empty — arms the
	// client's retry policy, and after the run reopens the journal
	// kill-style to check the recovered state against the live store:
	// any divergence is acked-write loss and fails the run.
	Faults float64
}

// ClassStats aggregates one op class.
type ClassStats struct {
	Ops    int64
	Errors int64
	// Codes buckets the errors by server envelope code ("transport"
	// for failures that never produced an envelope).
	Codes   map[string]int64
	P50     time.Duration
	P90     time.Duration
	P99     time.Duration
	Mean    time.Duration
	PerSec  float64
	samples []time.Duration
}

// Report is the outcome of a load run.
type Report struct {
	Elapsed     time.Duration
	TotalOps    int64
	TotalErrors int64
	Classes     map[string]*ClassStats
	// FaultsInjected counts journal faults fired during a Faults run.
	FaultsInjected uint64
}

// classNames fixes the report ordering.
var classNames = []string{"check", "evolve", "commit", "migrate", "ingest"}

// Table renders the report as an aligned per-class summary.
func (r *Report) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-8s %10s %8s %10s %10s %10s %10s %10s\n",
		"class", "ops", "errors", "ops/s", "mean", "p50", "p90", "p99")
	for _, name := range classNames {
		cs, ok := r.Classes[name]
		if !ok || cs.Ops == 0 {
			continue
		}
		fmt.Fprintf(&b, "%-8s %10d %8d %10.1f %10s %10s %10s %10s%s\n",
			name, cs.Ops, cs.Errors, cs.PerSec,
			round(cs.Mean), round(cs.P50), round(cs.P90), round(cs.P99),
			codesColumn(cs.Codes))
	}
	fmt.Fprintf(&b, "total    %10d %8d in %s\n", r.TotalOps, r.TotalErrors, round(r.Elapsed))
	if r.FaultsInjected > 0 {
		fmt.Fprintf(&b, "faults injected: %d (recovery verified)\n", r.FaultsInjected)
	}
	return b.String()
}

// codesColumn renders a class's error-code breakdown, sorted by code
// so reruns diff cleanly.
func codesColumn(codes map[string]int64) string {
	if len(codes) == 0 {
		return ""
	}
	keys := make([]string, 0, len(codes))
	for k := range codes {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = fmt.Sprintf("%s:%d", k, codes[k])
	}
	return "  " + strings.Join(parts, " ")
}

func round(d time.Duration) time.Duration { return d.Round(time.Microsecond) }

// runner holds the shared state of one load run.
type runner struct {
	cfg    Config
	client *server.Client
	corpus []*scenario.Scenario
	// shared choreography IDs (one per scenario) for read-mostly
	// classes; commit workers get private copies.
	shared []string
	ops    atomic.Int64
}

// Run executes one load run against cfg.Addr: it provisions the
// corpus choreographies (idempotently), spins up the worker pool, and
// aggregates per-class latencies. With Faults set it self-hosts the
// server, injects journal faults during the run, and fails unless the
// journal recovers to exactly the live store's state.
func Run(ctx context.Context, cfg Config) (*Report, error) {
	var emb *embedded
	if cfg.Faults > 0 {
		if cfg.Faults >= 1 {
			return nil, fmt.Errorf("loadgen: fault rate %v out of range (0,1)", cfg.Faults)
		}
		if cfg.Addr != "" {
			return nil, fmt.Errorf("loadgen: fault injection self-hosts the server; drop -addr")
		}
		var err error
		if emb, err = startEmbedded(); err != nil {
			return nil, err
		}
		defer emb.stop()
		cfg.Addr = emb.addr
	}
	if cfg.Addr == "" {
		return nil, fmt.Errorf("loadgen: missing server address")
	}
	if cfg.Duration <= 0 && cfg.MaxOps <= 0 {
		return nil, fmt.Errorf("loadgen: need a duration or an op budget")
	}
	if cfg.Concurrency <= 0 {
		cfg.Concurrency = 4
	}
	if cfg.IngestBatch <= 0 {
		cfg.IngestBatch = 16
	}
	if cfg.Mix.total() == 0 {
		cfg.Mix = DefaultMix
	}
	if cfg.Prefix == "" {
		cfg.Prefix = "loadgen"
	}

	r := &runner{cfg: cfg, client: server.NewClient(cfg.Addr, nil)}
	if emb != nil {
		// Fault runs exercise the whole resilience stack: retried
		// idempotent requests against a server whose journal misbehaves.
		r.client.SetRetry(server.Retry{MaxAttempts: 3, BaseDelay: 2 * time.Millisecond})
	}
	if err := r.loadCorpus(); err != nil {
		return nil, err
	}
	if err := r.provision(ctx); err != nil {
		return nil, err
	}
	if emb != nil {
		// Provisioning ran clean; everything after this may fail.
		if err := emb.arm(cfg.Faults, cfg.Seed); err != nil {
			return nil, err
		}
	}

	if cfg.Duration > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, cfg.Duration)
		defer cancel()
	}

	recs := make([]map[string]*ClassStats, cfg.Concurrency)
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < cfg.Concurrency; w++ {
		recs[w] = map[string]*ClassStats{}
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r.worker(ctx, w, recs[w])
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)

	rep := &Report{Elapsed: elapsed, Classes: map[string]*ClassStats{}}
	for _, rec := range recs {
		for name, cs := range rec {
			agg, ok := rep.Classes[name]
			if !ok {
				agg = &ClassStats{}
				rep.Classes[name] = agg
			}
			agg.Ops += cs.Ops
			agg.Errors += cs.Errors
			for code, n := range cs.Codes {
				if agg.Codes == nil {
					agg.Codes = map[string]int64{}
				}
				agg.Codes[code] += n
			}
			agg.samples = append(agg.samples, cs.samples...)
		}
	}
	for _, cs := range rep.Classes {
		finalize(cs, elapsed)
		rep.TotalOps += cs.Ops
		rep.TotalErrors += cs.Errors
	}
	if emb != nil {
		fires, err := emb.disarm()
		if err != nil {
			return rep, err
		}
		rep.FaultsInjected = fires
		if err := emb.verifyRecovery(ctx); err != nil {
			return rep, fmt.Errorf("loadgen: acked-write loss: %w", err)
		}
	}
	return rep, nil
}

// finalize computes quantiles and rates from the raw samples.
func finalize(cs *ClassStats, elapsed time.Duration) {
	if len(cs.samples) == 0 {
		return
	}
	sort.Slice(cs.samples, func(i, j int) bool { return cs.samples[i] < cs.samples[j] })
	at := func(q float64) time.Duration {
		return cs.samples[int(q*float64(len(cs.samples)-1))]
	}
	var sum time.Duration
	for _, d := range cs.samples {
		sum += d
	}
	cs.P50, cs.P90, cs.P99 = at(0.50), at(0.90), at(0.99)
	cs.Mean = sum / time.Duration(len(cs.samples))
	if elapsed > 0 {
		cs.PerSec = float64(cs.Ops) / elapsed.Seconds()
	}
	cs.samples = nil
}

func (r *runner) loadCorpus() error {
	all, err := scenario.All()
	if err != nil {
		return fmt.Errorf("loadgen: %w", err)
	}
	if len(r.cfg.Scenarios) == 0 {
		r.corpus = all
	}
	for _, name := range r.cfg.Scenarios {
		i := slices.IndexFunc(all, func(sc *scenario.Scenario) bool { return sc.Name == name })
		if i < 0 {
			return fmt.Errorf("loadgen: unknown scenario %q", name)
		}
		r.corpus = append(r.corpus, all[i])
	}
	if len(r.corpus) == 0 {
		return fmt.Errorf("loadgen: no scenarios")
	}
	return nil
}

// provision creates the run's choreographies: one shared copy of every
// scenario, plus a private copy per commit worker. Existing copies
// (reruns against the same server) are reused.
func (r *runner) provision(ctx context.Context) error {
	type copyOf struct {
		id string
		sc *scenario.Scenario
	}
	var ids []copyOf
	for _, sc := range r.corpus {
		id := r.cfg.Prefix + "-" + sc.Name
		r.shared = append(r.shared, id)
		ids = append(ids, copyOf{id, sc})
	}
	if r.cfg.Mix.Commit > 0 {
		for w := 0; w < r.cfg.Concurrency; w++ {
			sc := r.corpus[w%len(r.corpus)]
			ids = append(ids, copyOf{fmt.Sprintf("%s-%s-w%d", r.cfg.Prefix, sc.Name, w), sc})
		}
	}
	existing := map[string]bool{}
	if known, err := r.client.Choreographies(ctx); err == nil {
		for _, id := range known {
			existing[id] = true
		}
	}
	for _, e := range ids {
		if existing[e.id] {
			continue
		}
		if err := r.client.CreateChoreography(ctx, e.id, e.sc.SyncOps); err != nil {
			return fmt.Errorf("loadgen: creating %s: %w", e.id, err)
		}
		if _, err := r.client.RegisterParties(ctx, e.id, e.sc.Parties, nil); err != nil {
			return fmt.Errorf("loadgen: registering %s: %w", e.id, err)
		}
		for _, p := range e.sc.Parties {
			insts := instancesJSON(e.sc.InstancesOf(p.Owner))
			if len(insts) == 0 {
				continue
			}
			if _, err := r.client.AddInstances(ctx, e.id, p.Owner, insts); err != nil {
				return fmt.Errorf("loadgen: seeding instances of %s: %w", e.id, err)
			}
		}
	}
	return nil
}

func instancesJSON(insts []scenario.Instance) []server.InstanceJSON {
	var out []server.InstanceJSON
	for _, in := range insts {
		j := server.InstanceJSON{ID: in.ID}
		for _, l := range in.Trace {
			j.Trace = append(j.Trace, l.String())
		}
		out = append(out, j)
	}
	return out
}

// worker runs one goroutine's share of the op schedule.
func (r *runner) worker(ctx context.Context, w int, rec map[string]*ClassStats) {
	rng := rand.New(rand.NewSource(r.cfg.Seed + int64(w)*7919))
	commitSc := r.corpus[w%len(r.corpus)]
	commitID := fmt.Sprintf("%s-%s-w%d", r.cfg.Prefix, commitSc.Name, w)
	iter := 0
	for {
		if ctx.Err() != nil {
			return
		}
		if r.cfg.MaxOps > 0 && r.ops.Add(1) > r.cfg.MaxOps {
			return
		}
		iter++
		si := rng.Intn(len(r.corpus))
		sc, id := r.corpus[si], r.shared[si]
		class := pickClass(rng, r.cfg.Mix)
		start := time.Now()
		var err error
		switch class {
		case "check":
			_, err = r.client.Check(ctx, id)
		case "evolve":
			err = r.evolveOnly(ctx, rng, sc, id)
		case "commit":
			err = r.commitRevert(ctx, commitSc, commitID)
		case "migrate":
			party := sc.Parties[rng.Intn(len(sc.Parties))].Owner
			_, err = r.client.Migrate(ctx, id, party, "")
		case "ingest":
			err = r.ingestBatch(ctx, sc, id, w, iter)
		}
		if ctx.Err() != nil {
			// Latency of an op cut off by the deadline is noise.
			return
		}
		cs, ok := rec[class]
		if !ok {
			cs = &ClassStats{}
			rec[class] = cs
		}
		cs.Ops++
		if err != nil {
			cs.Errors++
			if cs.Codes == nil {
				cs.Codes = map[string]int64{}
			}
			cs.Codes[errCode(err)]++
		} else {
			cs.samples = append(cs.samples, time.Since(start))
		}
	}
}

func pickClass(rng *rand.Rand, m Mix) string {
	n := rng.Intn(m.total())
	for _, c := range []struct {
		name   string
		weight int
	}{{"check", m.Check}, {"evolve", m.Evolve}, {"commit", m.Commit}, {"migrate", m.Migrate}, {"ingest", m.Ingest}} {
		if n < c.weight {
			return c.name
		}
		n -= c.weight
	}
	return "check"
}

// opsJSON converts an episode's specs to wire ops.
func opsJSON(ep scenario.Episode) []server.OpJSON {
	out := make([]server.OpJSON, len(ep.Ops))
	for i, sp := range ep.Ops {
		out[i] = server.OpJSON(sp)
	}
	return out
}

// evolveOnly runs a what-if analysis of a random scripted episode
// against the shared choreography without committing it.
func (r *runner) evolveOnly(ctx context.Context, rng *rand.Rand, sc *scenario.Scenario, id string) error {
	ep := sc.Episodes[rng.Intn(len(sc.Episodes))]
	_, err := r.client.EvolveOps(ctx, id, ep.Party, opsJSON(ep))
	return err
}

// commitRevert evolves the worker-private choreography through its
// first scripted episode, commits, and reverts the originator to the
// base process — leaving the copy back at its starting schema (modulo
// version counters) for the next cycle.
func (r *runner) commitRevert(ctx context.Context, sc *scenario.Scenario, id string) error {
	ep := sc.Episodes[0]
	evo, err := r.client.EvolveOps(ctx, id, ep.Party, opsJSON(ep))
	if err != nil {
		return err
	}
	if _, err := r.client.Commit(ctx, evo.Evolution); err != nil {
		return err
	}
	if _, err := r.client.UpdateParty(ctx, id, sc.Party(ep.Party), nil); err != nil {
		return err
	}
	return nil
}

// ingestBatch streams a batch of scripted-trace events under instance
// IDs unique to this (worker, iteration).
func (r *runner) ingestBatch(ctx context.Context, sc *scenario.Scenario, id string, w, iter int) error {
	evs := scenario.Events(sc.Instances, fmt.Sprintf("-w%d-%d", w, iter))
	// Batches always cut at the stream head so every instance keeps a
	// whole, in-order trace prefix.
	if len(evs) > r.cfg.IngestBatch {
		evs = evs[:r.cfg.IngestBatch]
	}
	batch := make([]server.IngestEventJSON, len(evs))
	for i, ev := range evs {
		batch[i] = server.IngestEventJSON{Party: ev.Party, Instance: ev.Instance, Label: string(ev.Label)}
	}
	_, err := r.client.IngestEvents(ctx, id, batch)
	return err
}

// errCode buckets an op error for the per-class breakdown: the server
// envelope code when there is one, "transport" otherwise.
func errCode(err error) string {
	var apiErr *server.APIError
	if errors.As(err, &apiErr) && apiErr.Code != "" {
		return apiErr.Code
	}
	return "transport"
}

// faultPoints are the journal writes a fault run injects into. The
// WAL-truncate (rollback) point is deliberately left alone: failing
// rollback poisons the store into permanent read-only mode, which is
// degraded_test territory, not steady-state chaos.
var faultPoints = []string{
	fault.PointJournalAppendWrite,
	fault.PointJournalCheckpointWrite,
	fault.PointJournalCheckpointRename,
}

// embedded is the self-hosted choreod a fault run drives: a journaled
// store behind a real HTTP listener, so faults land on the same code
// path a production server runs.
type embedded struct {
	dir   string
	store *store.Store
	http  *http.Server
	addr  string
}

func startEmbedded() (*embedded, error) {
	dir, err := os.MkdirTemp("", "loadgen-faults-")
	if err != nil {
		return nil, fmt.Errorf("loadgen: %w", err)
	}
	st, err := store.Open(store.WithJournal(dir), store.WithShards(4))
	if err != nil {
		os.RemoveAll(dir)
		return nil, fmt.Errorf("loadgen: opening embedded store: %w", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		st.Close()
		os.RemoveAll(dir)
		return nil, fmt.Errorf("loadgen: %w", err)
	}
	e := &embedded{
		dir:   dir,
		store: st,
		http:  server.New(st).HTTPServer(""),
		addr:  "http://" + ln.Addr().String(),
	}
	go e.http.Serve(ln)
	return e, nil
}

// arm turns on the journal faults at the given per-hit probability,
// seeded off the run seed so reruns replay the same fault schedule.
func (e *embedded) arm(rate float64, seed int64) error {
	for i, pt := range faultPoints {
		if err := fault.Arm(pt, fault.Trigger{Prob: rate, Seed: uint64(seed) + uint64(i) + 1}); err != nil {
			fault.DisarmAll()
			return fmt.Errorf("loadgen: %w", err)
		}
	}
	return nil
}

// disarm turns the faults off and reports how many fired.
func (e *embedded) disarm() (uint64, error) {
	var fires uint64
	for _, pt := range faultPoints {
		n, err := fault.Fires(pt)
		if err != nil {
			fault.DisarmAll()
			return 0, fmt.Errorf("loadgen: %w", err)
		}
		fires += n
	}
	fault.DisarmAll()
	return fires, nil
}

// verifyRecovery reopens the journal directory kill-style — the live
// store is NOT closed first, exactly as after a crash — and checks the
// recovered state against what the live store acked: choreography set,
// snapshot and party versions, and per-party instance counts. Any
// divergence means an acked write was lost.
func (e *embedded) verifyRecovery(ctx context.Context) error {
	recovered, err := store.Open(store.WithJournal(e.dir), store.WithShards(4))
	if err != nil {
		return fmt.Errorf("reopening journal: %w", err)
	}
	defer recovered.Close()

	liveIDs, err := e.store.IDs(ctx)
	if err != nil {
		return err
	}
	recIDs, err := recovered.IDs(ctx)
	if err != nil {
		return err
	}
	sort.Strings(liveIDs)
	sort.Strings(recIDs)
	if fmt.Sprint(liveIDs) != fmt.Sprint(recIDs) {
		return fmt.Errorf("choreography IDs: recovered %v, live %v", recIDs, liveIDs)
	}
	for _, id := range liveIDs {
		live, err := e.store.Snapshot(ctx, id)
		if err != nil {
			return err
		}
		rec, err := recovered.Snapshot(ctx, id)
		if err != nil {
			return fmt.Errorf("%s: missing after recovery: %w", id, err)
		}
		if rec.Version != live.Version {
			return fmt.Errorf("%s: recovered version %d, live %d", id, rec.Version, live.Version)
		}
		for _, name := range live.Parties() {
			lp, _ := live.Party(name)
			rp, ok := rec.Party(name)
			if !ok {
				return fmt.Errorf("%s/%s: missing after recovery", id, name)
			}
			if rp.Version != lp.Version {
				return fmt.Errorf("%s/%s: recovered party version %d, live %d", id, name, rp.Version, lp.Version)
			}
			ln, err := e.store.InstanceRecords(ctx, id, name)
			if err != nil {
				return err
			}
			rn, err := recovered.InstanceRecords(ctx, id, name)
			if err != nil {
				return err
			}
			if len(rn) != len(ln) {
				return fmt.Errorf("%s/%s: recovered %d instances, live %d", id, name, len(rn), len(ln))
			}
		}
	}
	return nil
}

// stop tears the embedded server down; the journal directory is kept
// only if the store degraded (it is then the evidence).
func (e *embedded) stop() {
	fault.DisarmAll()
	e.http.Close()
	degraded := e.store.Degraded() != nil
	e.store.Close()
	if !degraded {
		os.RemoveAll(e.dir)
	}
}
