// Command choreobench is the choreod benchmark. It hosts choreod in its
// own process (a journaled store behind the HTTP handler on a loopback
// TCP listener), provisions it from the scenario corpus, drives one of
// three closed-loop workloads from two client goroutines sharing one
// typed client, checks every answer, and prints the end-to-end metrics
// (or, with -trace 1, the per-layer metrics) as the last line of its
// output. See README.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/ingest"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of the output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// config is one run's parameters.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	work     string // directory for store data and trace output
	// small shrinks every population and op count (the tests use it).
	small bool
}

func main() {
	var cfg config
	var traceFlag int
	flag.StringVar(&cfg.workload, "workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	flag.Int64Var(&cfg.seed, "seed", 1, "seed of the generated inputs")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "length of the timed phase in seconds")
	flag.IntVar(&traceFlag, "trace", 0, "1 runs with tracing and prints the per-layer metrics")
	flag.StringVar(&cfg.work, "work", ".bench_build", "directory for store data and trace output")
	flag.Parse()
	cfg.trace = traceFlag == 1
	if _, ok := workloads[cfg.workload]; !ok || cfg.seconds <= 0 || (traceFlag != 0 && traceFlag != 1) {
		flag.Usage()
		os.Exit(2)
	}
	res, err := run(context.Background(), cfg, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "choreobench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "choreobench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// gate collects correctness violations; any one fails the run.
type gate struct {
	mu     sync.Mutex
	n      int
	errors []string
}

func (g *gate) failf(format string, args ...any) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.n++
	if len(g.errors) < 10 {
		g.errors = append(g.errors, fmt.Sprintf(format, args...))
	}
}

func (g *gate) ok() bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.n == 0
}

// opFunc runs one op of one client, recording into rec.
type opFunc func(ctx context.Context, rec *recorder)

// drive runs two clients in a closed loop: each sends its next op only
// after the previous one completed. It stops after perClient ops per
// client, or at the deadline when perClient is 0.
func drive(ctx context.Context, ops [2]opFunc, perClient int, d time.Duration) clients {
	var recs clients
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(d)
	for i := range ops {
		recs[i] = newRecorder()
		recs[i].start = start
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for n := 0; ; n++ {
				if perClient > 0 && n >= perClient || perClient == 0 && !time.Now().Before(deadline) {
					return
				}
				ops[i](ctx, recs[i])
			}
		}(i)
	}
	wg.Wait()
	for _, r := range recs {
		r.elapsed = time.Since(start)
	}
	return recs
}

// clientSeed derives a client's RNG seed from the run seed, so each
// client's op sequence is fixed by the seed alone.
func clientSeed(seed int64, role string, idx int) *rand.Rand {
	h := int64(1469598103934665603)
	for _, c := range role {
		h = (h ^ int64(c)) * 1099511628211
	}
	return rand.New(rand.NewSource(seed*1000003 + h + int64(idx)))
}

// deck deals 0..n-1 in a seeded order, reshuffled each time all have
// been dealt: every stretch of n draws holds each index once, so the
// mix of choices is the same for every seed and only their order
// varies.
type deck struct {
	rng   *rand.Rand
	order []int
	next  int
}

func newDeck(rng *rand.Rand, n int) *deck {
	d := &deck{rng: rng, order: make([]int, n)}
	for i := range d.order {
		d.order[i] = i
	}
	d.next = n
	return d
}

func (d *deck) draw() int {
	if d.next == len(d.order) {
		d.rng.Shuffle(len(d.order), func(i, j int) { d.order[i], d.order[j] = d.order[j], d.order[i] })
		d.next = 0
	}
	d.next++
	return d.order[d.next-1]
}

func run(ctx context.Context, cfg config, out io.Writer) (*result, error) {
	wl := workloads[cfg.workload]
	k, err := loadKit()
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(cfg.work, 0o755); err != nil {
		return nil, err
	}
	runDir, err := os.MkdirTemp(cfg.work, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(runDir)
	b := &bench{cfg: cfg, kit: k, gate: &gate{}, dir: runDir}
	if cfg.trace {
		b.tr = newTracer()
		b.ing = ingest.New(ingest.Config{Lanes: ingest.DefaultLanes}, func(int, []ingest.Event) error { return nil })
	}
	rep, err := b.execute(ctx, wl)
	if b.ing != nil {
		b.ing.Close()
	}
	if err != nil {
		return nil, err
	}
	rep.print(out, b)
	res := &result{Correct: b.gate.ok(), Metrics: map[string]metric{}}
	for _, s := range rep.ops {
		res.Attempted += s.attempted
		res.Failed += s.failed
	}
	if cfg.trace {
		res.Metrics = b.layerMetrics(rep)
		spans := filepath.Join(cfg.work, fmt.Sprintf("spans-%s-seed%d.jsonl", cfg.workload, cfg.seed))
		if err := b.tr.writeSpans(spans); err != nil {
			return nil, err
		}
		fmt.Fprintf(out, "spans: %s (%d)\n", spans, len(b.tr.spans))
	} else {
		res.Metrics = rep.endToEnd
	}
	if err := b.compareOverhead(out, rep); err != nil {
		return nil, err
	}
	for _, e := range b.gate.errors {
		fmt.Fprintln(out, "INCORRECT:", e)
	}
	return res, nil
}

// bench carries one run's shared state.
type bench struct {
	cfg  config
	kit  *kit
	tr   *tracer
	gate *gate
	dir  string
	envs int
	// ing is the benchmark-owned ingest engine (64 lanes, no-op apply)
	// of traced runs.
	ing        *ingest.Engine
	unmarshals atomic.Uint64
}

func (b *bench) newEnv() (*env, error) {
	b.envs++
	return openEnv(filepath.Join(b.dir, fmt.Sprintf("store-%d", b.envs)), b.tr)
}

// tally counts attempted and failed ops.
type tally struct{ attempted, failed int }

// report is everything one run measured.
type report struct {
	endToEnd map[string]metric
	// ops tallies attempted and failed ops per phase and op class.
	ops map[string]*tally
	// mainOps and sliceOps count the workload's ops in the timed phase
	// and in the fixed op count on the recovery store.
	mainOps, sliceOps int
	setups            []time.Duration
	recover           time.Duration
	// probes holds each probe workload's rounds.
	probes map[string][]clients
	// segments holds the values a metric is the median of: a latency's
	// per segment, the set-up and recovery times.
	segments   map[string]floats
	walRecords int
	runtime    runtimeDelta
	// stats are the Store.Stats deltas of each phase.
	stats [numPhases]statsDelta
}

func (rep *report) print(out io.Writer, b *bench) {
	fmt.Fprintf(out, "workload %s seed %d seconds %g trace %v\n", b.cfg.workload, b.cfg.seed, b.cfg.seconds, b.cfg.trace)
	names := make([]string, 0, len(rep.ops))
	for name := range rep.ops {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		s := rep.ops[name]
		fmt.Fprintf(out, "ops %-22s attempted %8d failed %d\n", name, s.attempted, s.failed)
	}
	rt := rep.runtime
	fmt.Fprintf(out, "runtime alloc_bytes_per_op %.0f gc_cpu_fraction %.3f gc_pause_p99_us %.0f sched_latency_p99_us %.0f\n",
		rt.allocBytes/float64(max(rep.mainOps, 1)), ratio(rt.gcCPU, rt.allCPU),
		histQuantile(rt.pauses, 0.99)*1e6, histQuantile(rt.sched, 0.99)*1e6)
	keys := make([]string, 0, len(rep.endToEnd))
	for k := range rep.endToEnd {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(out, "e2e %-22s %14.4f %-4s", k, rep.endToEnd[k].Value, rep.endToEnd[k].Unit)
		if per := rep.segments[k]; per != nil {
			fmt.Fprintf(out, " of %.4g", []float64(per))
		}
		fmt.Fprintln(out)
	}
}

// compareOverhead prints, on a traced run, the difference between its
// end-to-end numbers and those of the untraced run of the same
// workload and seed, when that run left its result behind; every
// untraced run leaves one.
func (b *bench) compareOverhead(out io.Writer, rep *report) error {
	path := filepath.Join(b.cfg.work, fmt.Sprintf("e2e-%s-seed%d.json", b.cfg.workload, b.cfg.seed))
	if !b.cfg.trace {
		data, err := json.Marshal(rep.endToEnd)
		if err != nil {
			return err
		}
		return os.WriteFile(path, data, 0o644)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintln(out, "overhead: no untraced run of this workload and seed to compare with")
		return nil
	}
	var base map[string]metric
	if err := json.Unmarshal(data, &base); err != nil {
		return err
	}
	keys := make([]string, 0, len(base))
	for k := range base {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		traced, ok := rep.endToEnd[k]
		if !ok || base[k].Value == 0 {
			continue
		}
		fmt.Fprintf(out, "overhead %-22s untraced %12.4f traced %12.4f %+7.1f%%\n",
			k, base[k].Value, traced.Value, 100*(traced.Value-base[k].Value)/base[k].Value)
	}
	return nil
}
