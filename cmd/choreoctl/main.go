// Command choreoctl is the command-line front end of the framework:
//
//	choreoctl derive   -in proc.xml [-dot]        derive the public process + mapping table
//	choreoctl view     -in proc.xml -party P      bilateral view τ_P of the public process
//	choreoctl check    -in a.xml -in b.xml ...    pairwise consistency of processes
//	choreoctl classify -old old.xml -new new.xml -partner p.xml
//	                                              classify a change (Defs. 5/6)
//	choreoctl propagate -old old.xml -new new.xml -partner p.xml
//	                                              plan the propagation and print suggestions
//	choreoctl simulate -in a.xml -in b.xml ... [-walks n]
//	                                              execute the choreography
//	choreoctl serve    [-addr :8080] [-shards n] [-cachecap n] [-data dir] [-fsync]
//	                                              run the choreod HTTP service; -data makes
//	                                              it durable (journal + recovery + graceful
//	                                              SIGTERM checkpoint)
//	choreoctl register -addr URL -chor ID -in a.xml [-in b.xml ...]
//	                                              batch-register parties on a running service
//	choreoctl evolve   -addr URL -chor ID -party P (-new new.xml | -op SPEC ...) [-commit]
//	                                              submit a change transaction for analysis
//	choreoctl migrate  -addr URL -chor ID [-workers n] [-nowait] [-stranded n]
//	                                              bulk-migrate running instances to the
//	                                              committed schema
//	choreoctl ingest   -addr URL -chor ID [-in events.jsonl] [-batch n]
//	                                              stream observed instance events (JSONL)
//	                                              into a running service, honoring
//	                                              backpressure retry hints
//	choreoctl loadgen  -addr URL [-duration 10s | -maxops n] [-concurrency 4]
//	                                              drive mixed corpus traffic (check/
//	                                              evolve/commit/migrate/ingest) against
//	                                              a running service and report per-class
//	                                              throughput and latency quantiles;
//	                                              -faults p self-hosts an embedded
//	                                              choreod, injects journal faults and
//	                                              verifies crash recovery afterwards
//
// The remote subcommands (register, evolve, migrate, ingest, loadgen) talk to a running
// choreod over its /v2/ API and accept -timeout to bound the request
// context (default 30s; 0 disables the deadline).
//
// Processes are BPEL-flavored XML as produced by MarshalProcessXML;
// operations referenced by the processes are registered implicitly
// (asynchronous) unless -sync party.op flags mark them synchronous.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	choreo "repro"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	cmd, args := os.Args[1], os.Args[2:]
	var err error
	switch cmd {
	case "derive":
		err = runDerive(args)
	case "view":
		err = runView(args)
	case "check":
		err = runCheck(args)
	case "classify":
		err = runClassify(args)
	case "propagate":
		err = runPropagate(args)
	case "simulate":
		err = runSimulate(args)
	case "serve":
		err = runServe(args)
	case "register":
		err = runRegister(args)
	case "evolve":
		err = runEvolve(args)
	case "migrate":
		err = runMigrate(args)
	case "ingest":
		err = runIngest(args)
	case "loadgen":
		err = runLoadgen(args)
	case "help", "-h", "--help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "choreoctl: unknown command %q\n", cmd)
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "choreoctl:", err)
		if choreo.ChoreoErrIs(err, choreo.ChoreoCodeUnavailable) {
			fmt.Fprintln(os.Stderr, "choreoctl: the server is degraded to read-only (or shutting down): reads still work; mutations need a restart over an intact journal")
		}
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: choreoctl <command> [flags]

commands:
  derive     derive the public process and mapping table of a private process
  view       compute the bilateral view of a public process
  check      check pairwise consistency of two or more processes
  classify   classify a change of one process against a partner
  propagate  plan the propagation of a variant change
  simulate   execute a choreography (exhaustive + random walks)
  serve      run the choreod HTTP service
             [-addr :8080] [-shards 16] [-cachecap n, 0 = unbounded cache]
             [-data dir, journal + recovery; empty = in-memory] [-fsync]
  register   batch-register parties on a running choreod (/v2/)
             [-addr http://localhost:8080] [-timeout 30s, 0 = none]
  evolve     submit a change transaction to a running choreod (/v2/)
             [-addr http://localhost:8080] [-timeout 30s, 0 = none]
  migrate    bulk-migrate running instances to the committed schema (/v2/)
             [-addr http://localhost:8080] [-timeout 30s, 0 = none]
  ingest     stream observed instance events into a running choreod (/v2/)
             [-addr http://localhost:8080] [-in events.jsonl, empty = stdin]
             [-batch 256] [-timeout 30s per request, 0 = none]
  loadgen    drive mixed scenario-corpus traffic against a running choreod (/v2/)
             [-addr http://localhost:8080] [-duration 10s | -maxops n]
             [-concurrency 4] [-mix check=4,evolve=2,commit=1,migrate=1,ingest=4]
             [-scenario name, repeatable; empty = whole corpus] [-seed 1]
             [-ingestbatch 16] [-prefix loadgen]
             [-faults p: embedded server + journal fault injection +
              post-run crash-recovery verification]

run 'choreoctl <command> -h' for the full flag list of a command`)
}

// multiFlag collects repeated -in flags.
type multiFlag []string

func (m *multiFlag) String() string     { return strings.Join(*m, ",") }
func (m *multiFlag) Set(s string) error { *m = append(*m, s); return nil }

func loadProcess(path string) (*choreo.Process, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return choreo.UnmarshalProcessXML(data)
}

// buildRegistry registers every operation the processes mention so the
// derivation validates; sync flags mark synchronous operations. It is
// the same inference the choreod service runs when parties register.
func buildRegistry(procs []*choreo.Process, syncOps []string) (*choreo.Registry, error) {
	return choreo.InferRegistry(procs, syncOps)
}

func runDerive(args []string) error {
	fs := flag.NewFlagSet("derive", flag.ExitOnError)
	in := fs.String("in", "", "private process XML file")
	dot := fs.Bool("dot", false, "emit Graphviz dot instead of text")
	var syncOps multiFlag
	fs.Var(&syncOps, "sync", "mark party.op as synchronous (repeatable)")
	fs.Parse(args)
	if *in == "" {
		return fmt.Errorf("derive: -in required")
	}
	p, err := loadProcess(*in)
	if err != nil {
		return err
	}
	reg, err := buildRegistry([]*choreo.Process{p}, syncOps)
	if err != nil {
		return err
	}
	pub, err := choreo.DerivePublic(p, reg)
	if err != nil {
		return err
	}
	if *dot {
		fmt.Print(pub.Automaton.DOT())
	} else {
		fmt.Print(pub.Automaton.DebugString())
	}
	fmt.Println("mapping table:")
	fmt.Print(pub.Table)
	return nil
}

func runView(args []string) error {
	fs := flag.NewFlagSet("view", flag.ExitOnError)
	in := fs.String("in", "", "private process XML file")
	party := fs.String("party", "", "viewing party")
	dot := fs.Bool("dot", false, "emit Graphviz dot")
	var syncOps multiFlag
	fs.Var(&syncOps, "sync", "mark party.op as synchronous (repeatable)")
	fs.Parse(args)
	if *in == "" || *party == "" {
		return fmt.Errorf("view: -in and -party required")
	}
	p, err := loadProcess(*in)
	if err != nil {
		return err
	}
	reg, err := buildRegistry([]*choreo.Process{p}, syncOps)
	if err != nil {
		return err
	}
	pub, err := choreo.DerivePublic(p, reg)
	if err != nil {
		return err
	}
	v := pub.Automaton.View(*party)
	if *dot {
		fmt.Print(v.DOT())
	} else {
		fmt.Print(v.DebugString())
	}
	return nil
}

func loadAll(paths []string, syncOps []string) ([]*choreo.Process, *choreo.Registry, error) {
	if len(paths) < 2 {
		return nil, nil, fmt.Errorf("need at least two -in processes")
	}
	var procs []*choreo.Process
	for _, path := range paths {
		p, err := loadProcess(path)
		if err != nil {
			return nil, nil, err
		}
		procs = append(procs, p)
	}
	reg, err := buildRegistry(procs, syncOps)
	return procs, reg, err
}

func runCheck(args []string) error {
	fs := flag.NewFlagSet("check", flag.ExitOnError)
	var ins, syncOps multiFlag
	fs.Var(&ins, "in", "private process XML file (repeatable)")
	fs.Var(&syncOps, "sync", "mark party.op as synchronous (repeatable)")
	fs.Parse(args)
	procs, reg, err := loadAll(ins, syncOps)
	if err != nil {
		return err
	}
	c := choreo.NewChoreography(reg)
	for _, p := range procs {
		if err := c.AddParty(p); err != nil {
			return err
		}
	}
	rep, err := c.Check()
	if err != nil {
		return err
	}
	fmt.Print(rep)
	if !rep.Consistent() {
		return errors.New("check: choreography is not consistent")
	}
	return nil
}

func runClassify(args []string) error {
	fs := flag.NewFlagSet("classify", flag.ExitOnError)
	oldF := fs.String("old", "", "originator process before the change")
	newF := fs.String("new", "", "originator process after the change")
	partnerF := fs.String("partner", "", "partner process")
	var syncOps multiFlag
	fs.Var(&syncOps, "sync", "mark party.op as synchronous (repeatable)")
	fs.Parse(args)
	if *oldF == "" || *newF == "" || *partnerF == "" {
		return fmt.Errorf("classify: -old, -new and -partner required")
	}
	oldP, err := loadProcess(*oldF)
	if err != nil {
		return err
	}
	newP, err := loadProcess(*newF)
	if err != nil {
		return err
	}
	partnerP, err := loadProcess(*partnerF)
	if err != nil {
		return err
	}
	reg, err := buildRegistry([]*choreo.Process{oldP, newP, partnerP}, syncOps)
	if err != nil {
		return err
	}
	oldPub, err := choreo.DerivePublic(oldP, reg)
	if err != nil {
		return err
	}
	newPub, err := choreo.DerivePublic(newP, reg)
	if err != nil {
		return err
	}
	partnerPub, err := choreo.DerivePublic(partnerP, reg)
	if err != nil {
		return err
	}
	partner := partnerP.Owner
	oldView := oldPub.Automaton.View(partner)
	newView := newPub.Automaton.View(partner)
	kind := choreo.ClassifyChange(oldView, newView)
	scope, err := choreo.ClassifyScope(newView, partnerPub.Automaton.View(oldP.Owner))
	if err != nil {
		return err
	}
	fmt.Printf("change kind:  %s (Def. 5)\nchange scope: %s (Def. 6)\n", kind, scope)
	if scope == choreo.ScopeVariant {
		fmt.Println("propagation to the partner is REQUIRED (Sec. 5)")
	} else {
		fmt.Println("no propagation necessary")
	}
	return nil
}

func runPropagate(args []string) error {
	fs := flag.NewFlagSet("propagate", flag.ExitOnError)
	oldF := fs.String("old", "", "originator process before the change")
	newF := fs.String("new", "", "originator process after the change")
	partnerF := fs.String("partner", "", "partner process")
	var syncOps multiFlag
	fs.Var(&syncOps, "sync", "mark party.op as synchronous (repeatable)")
	fs.Parse(args)
	if *oldF == "" || *newF == "" || *partnerF == "" {
		return fmt.Errorf("propagate: -old, -new and -partner required")
	}
	oldP, err := loadProcess(*oldF)
	if err != nil {
		return err
	}
	newP, err := loadProcess(*newF)
	if err != nil {
		return err
	}
	partnerP, err := loadProcess(*partnerF)
	if err != nil {
		return err
	}
	reg, err := buildRegistry([]*choreo.Process{oldP, newP, partnerP}, syncOps)
	if err != nil {
		return err
	}
	c := choreo.NewChoreography(reg)
	if err := c.AddParty(oldP); err != nil {
		return err
	}
	if err := c.AddParty(partnerP); err != nil {
		return err
	}
	// Express the change as a whole-body replacement of the
	// originator's process.
	op := choreo.Replace{Path: nil, New: newP.Body}
	rep, err := c.Evolve(oldP.Owner, op)
	if err != nil {
		return err
	}
	for _, im := range rep.Impacts {
		fmt.Printf("partner %s: view changed=%v", im.Partner, im.ViewChanged)
		if im.ViewChanged {
			fmt.Printf(", %s, %s", im.Classification.Kind, im.Classification.Scope)
		}
		fmt.Println()
		for _, plan := range im.Plans {
			fmt.Printf("  difference automaton: %d states\n", plan.Diff.NumStates())
			fmt.Printf("  adapted partner public: %d states\n", plan.NewPartnerPublic.NumStates())
			for _, r := range plan.Regions {
				fmt.Println("  region:", r)
			}
		}
		for _, s := range im.Suggestions {
			fmt.Println("  suggestion:", s)
		}
	}
	return nil
}

// runServe starts the choreod HTTP service: a sharded, cache-aware
// choreography store behind the /v2/ JSON API of internal/server.
// With -data the store is durable: state is recovered from the
// journal directory on boot, every mutation is written ahead to it,
// and a graceful shutdown (SIGTERM or interrupt) drains in-flight
// requests, checkpoints and closes the journal. Without -data the
// store is in-memory, as before.
func runServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	addr := fs.String("addr", ":8080", "listen address")
	shards := fs.Int("shards", 0, "store shard count (0 = default)")
	cacheCap := fs.Int("cachecap", 0, "per-choreography consistency-cache entries (0 = unbounded)")
	data := fs.String("data", "", "journal directory: recover on boot, write-ahead every mutation, checkpoint on shutdown (empty = in-memory)")
	fsync := fs.Bool("fsync", false, "with -data: fsync the journal on every append")
	fs.Parse(args)
	opts := []choreo.StoreOption{
		choreo.WithStoreShards(*shards), choreo.WithStoreCacheCap(*cacheCap),
	}
	if *data != "" {
		opts = append(opts, choreo.WithStoreJournal(*data))
		if *fsync {
			opts = append(opts, choreo.WithStoreJournalFsync())
		}
	}
	st, err := choreo.OpenChoreographyStore(opts...)
	if err != nil {
		return err
	}
	srv := choreo.NewChoreoServer(st)
	httpSrv := srv.HTTPServer(*addr)
	if *data == "" {
		log.Printf("choreod listening on %s (in-memory)", *addr)
		return httpSrv.ListenAndServe()
	}
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, syscall.SIGTERM, os.Interrupt)
	defer signal.Stop(stop)
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	log.Printf("choreod listening on %s (journal: %s)", *addr, *data)
	select {
	case err := <-errc:
		st.Close()
		return err
	case sig := <-stop:
		log.Printf("choreod: %v: draining, checkpointing, closing journal", sig)
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := httpSrv.Shutdown(shutdownCtx); err != nil {
			log.Printf("choreod: shutdown: %v", err)
		}
		if info, err := st.Checkpoint(shutdownCtx); err != nil {
			// Not fatal: the journal is intact, the next boot replays it.
			log.Printf("choreod: checkpoint failed (recovery will replay the log): %v", err)
		} else {
			log.Printf("choreod: checkpointed %d bytes at LSN %d", info.Bytes, info.LSN)
		}
		return st.Close()
	}
}

// remoteContext builds the request context for the remote subcommands;
// timeout <= 0 means no deadline.
func remoteContext(timeout time.Duration) (context.Context, context.CancelFunc) {
	if timeout > 0 {
		return context.WithTimeout(context.Background(), timeout)
	}
	return context.WithCancel(context.Background())
}

// runRegister batch-registers (or updates) parties on a running
// choreod through POST /v2/choreographies/{id}/parties:batch — one
// change transaction, one version bump.
func runRegister(args []string) error {
	fs := flag.NewFlagSet("register", flag.ExitOnError)
	addr := fs.String("addr", "http://localhost:8080", "choreod base URL")
	chor := fs.String("chor", "", "choreography ID")
	create := fs.Bool("create", false, "create the choreography first")
	timeout := fs.Duration("timeout", 30*time.Second, "request timeout (0 = none)")
	var ins, syncOps multiFlag
	fs.Var(&ins, "in", "private process XML file (repeatable)")
	fs.Var(&syncOps, "sync", "mark party.op as synchronous (repeatable, with -create)")
	fs.Parse(args)
	if *chor == "" || len(ins) == 0 {
		return fmt.Errorf("register: -chor and at least one -in required")
	}
	var procs []*choreo.Process
	for _, path := range ins {
		p, err := loadProcess(path)
		if err != nil {
			return err
		}
		procs = append(procs, p)
	}
	ctx, cancel := remoteContext(*timeout)
	defer cancel()
	c := choreo.NewChoreoClient(*addr, nil)
	if *create {
		if err := c.CreateChoreography(ctx, *chor, syncOps); err != nil {
			return err
		}
	}
	batch, err := c.RegisterParties(ctx, *chor, procs, nil)
	if err != nil {
		return err
	}
	fmt.Printf("choreography %s at version %d\n", batch.Choreography, batch.Version)
	for _, pi := range batch.Parties {
		fmt.Printf("  party %s v%d: %d states, %d transitions\n", pi.Name, pi.Version, pi.States, pi.Transitions)
	}
	return nil
}

// parseOpSpec turns one -op flag value into a wire operation: either
// inline JSON ({"kind": ...}) or @file pointing at a JSON document.
func parseOpSpec(spec string) (choreo.EvolveOp, error) {
	var op choreo.EvolveOp
	raw := []byte(spec)
	if strings.HasPrefix(spec, "@") {
		data, err := os.ReadFile(spec[1:])
		if err != nil {
			return op, err
		}
		raw = data
	}
	if err := json.Unmarshal(raw, &op); err != nil {
		return op, fmt.Errorf("op %q: %v", spec, err)
	}
	if op.Kind == "" {
		return op, fmt.Errorf("op %q: missing kind", spec)
	}
	return op, nil
}

// runEvolve submits a change transaction — one or more operations
// analyzed as a unit — through POST /v2/choreographies/{id}/evolve,
// prints the per-partner analysis, and optionally commits it under the
// If-Match precondition the analysis returned.
func runEvolve(args []string) error {
	fs := flag.NewFlagSet("evolve", flag.ExitOnError)
	addr := fs.String("addr", "http://localhost:8080", "choreod base URL")
	chor := fs.String("chor", "", "choreography ID")
	party := fs.String("party", "", "change originator")
	newProc := fs.String("new", "", "proposed new private process XML file (whole-process replacement)")
	commit := fs.Bool("commit", false, "commit the transaction after analysis")
	timeout := fs.Duration("timeout", 30*time.Second, "request timeout (0 = none)")
	var opSpecs multiFlag
	fs.Var(&opSpecs, "op", `operation as JSON or @file, e.g. '{"kind":"delete","path":"Sequence:p/Invoke:x"}' (repeatable)`)
	fs.Parse(args)
	if *chor == "" || *party == "" {
		return fmt.Errorf("evolve: -chor and -party required")
	}
	var ops []choreo.EvolveOp
	if *newProc != "" {
		data, err := os.ReadFile(*newProc)
		if err != nil {
			return err
		}
		ops = append(ops, choreo.EvolveOp{Kind: "replaceProcess", XML: string(data)})
	}
	for _, spec := range opSpecs {
		op, err := parseOpSpec(spec)
		if err != nil {
			return err
		}
		ops = append(ops, op)
	}
	if len(ops) == 0 {
		return fmt.Errorf("evolve: provide -new and/or at least one -op")
	}
	ctx, cancel := remoteContext(*timeout)
	defer cancel()
	c := choreo.NewChoreoClient(*addr, nil)
	evo, err := c.EvolveOps(ctx, *chor, *party, ops)
	if err != nil {
		return err
	}
	fmt.Printf("evolution %s on %s (base version %d): public changed=%v, propagation needed=%v\n",
		evo.Evolution, evo.Choreography, evo.BaseVersion, evo.PublicChanged, evo.NeedsPropagation)
	for _, op := range evo.Ops {
		fmt.Println("  op:", op)
	}
	for _, im := range evo.Impacts {
		fmt.Printf("  partner %s: view changed=%v", im.Partner, im.ViewChanged)
		if im.ViewChanged {
			fmt.Printf(", %s, %s", im.Kind, im.Scope)
		}
		fmt.Println()
		for _, plan := range im.Plans {
			fmt.Printf("    plan %s: diff %d states, adapted partner public %d states\n",
				plan.Kind, plan.DiffStates, plan.NewPartnerPublicStates)
		}
		for _, sg := range im.Suggestions {
			fmt.Printf("    suggestion %d (executable=%v): %s\n", sg.Index, sg.Executable, sg.Description)
		}
	}
	if *commit {
		res, err := c.CommitIfMatch(ctx, evo.Evolution, evo.BaseVersion)
		if err != nil {
			return err
		}
		fmt.Printf("committed: %s now at version %d\n", res.Choreography, res.Version)
	}
	return nil
}

// runMigrate starts (or resumes) the bulk migration of a
// choreography's tracked instances through
// POST /v2/choreographies/{id}/migrations, waits for the sweep to
// finish and prints the report with the stranded instances. The job is
// idempotent per committed version: re-running a completed migration
// just reprints its report.
func runMigrate(args []string) error {
	fs := flag.NewFlagSet("migrate", flag.ExitOnError)
	addr := fs.String("addr", "http://localhost:8080", "choreod base URL")
	chor := fs.String("chor", "", "choreography ID")
	workers := fs.Int("workers", 0, "sweep worker-pool size (0 = server default)")
	nowait := fs.Bool("nowait", false, "start the sweep and exit without waiting")
	stranded := fs.Int("stranded", 20, "stranded instances to print (0 = none, -1 = all)")
	timeout := fs.Duration("timeout", 30*time.Second, "request timeout (0 = none)")
	fs.Parse(args)
	if *chor == "" {
		return fmt.Errorf("migrate: -chor required")
	}
	ctx, cancel := remoteContext(*timeout)
	defer cancel()
	c := choreo.NewChoreoClient(*addr, nil)
	job, err := c.StartMigration(ctx, *chor, *workers)
	if err != nil {
		return err
	}
	if *nowait {
		fmt.Printf("migration %s on %s to version %d: %s (%d/%d shards)\n",
			job.Job, job.Choreography, job.TargetVersion, job.Status, job.ShardsDone, job.Shards)
		return nil
	}
	final, err := c.WaitMigration(ctx, *chor, job.Job, 0)
	if err != nil {
		return err
	}
	fmt.Printf("migration %s on %s to version %d: %s\n",
		final.Job, final.Choreography, final.TargetVersion, final.Status)
	if final.Error != "" {
		fmt.Println("  error:", final.Error)
	}
	fmt.Printf("  %d instances: %d migrated, %d non-replayable, %d unviable\n",
		final.Total, final.Migratable, final.NonReplayable, final.Unviable)
	if *stranded == 0 {
		return nil
	}
	// A positive -stranded prints one page of that size; -stranded -1
	// drains the whole report through the cursor.
	total := final.NonReplayable + final.Unviable
	list := final.Stranded
	if *stranded < 0 {
		if list, err = c.MigrationStranded(ctx, *chor, final.Job); err != nil {
			return err
		}
	} else if len(list) > *stranded {
		list = list[:*stranded]
	} else if len(list) < *stranded && len(list) < total {
		page, err := c.MigrationJob(ctx, *chor, final.Job, *stranded, "")
		if err != nil {
			return err
		}
		list = page.Stranded
	}
	for _, st := range list {
		fmt.Printf("  stranded %s/%s: %s\n", st.Party, st.ID, st.Status)
	}
	if rest := total - len(list); *stranded > 0 && rest > 0 {
		fmt.Printf("  ... and %d more stranded instances\n", rest)
	}
	return nil
}

// runIngest streams observed instance events into a running choreod
// through POST /v2/choreographies/{id}/instances:events. The input is
// JSONL — one {"party","instance","label"} event per line, blank lines
// and #-comments skipped — read from -in or stdin, grouped into
// batches of -batch events. A 429 resource_exhausted answer (a full
// ingestion lane) backs off by the server's retryAfter hint and
// resubmits the identical batch, so a slow consumer throttles the
// stream instead of dropping it.
func runIngest(args []string) error {
	fs := flag.NewFlagSet("ingest", flag.ExitOnError)
	addr := fs.String("addr", "http://localhost:8080", "choreod base URL")
	chor := fs.String("chor", "", "choreography ID")
	in := fs.String("in", "", "JSONL event file (empty = stdin)")
	batch := fs.Int("batch", 256, "events per request (1..1024)")
	timeout := fs.Duration("timeout", 30*time.Second, "per-request timeout (0 = none)")
	fs.Parse(args)
	if *chor == "" {
		return fmt.Errorf("ingest: -chor required")
	}
	if *batch < 1 || *batch > 1024 {
		return fmt.Errorf("ingest: -batch must be in 1..1024")
	}
	var r io.Reader = os.Stdin
	if *in != "" {
		f, err := os.Open(*in)
		if err != nil {
			return err
		}
		defer f.Close()
		r = f
	}
	c := choreo.NewChoreoClient(*addr, nil)
	var pending []choreo.ChoreoIngestEvent
	total, batches := 0, 0
	flush := func() error {
		for len(pending) > 0 {
			ctx, cancel := remoteContext(*timeout)
			n, err := c.IngestEvents(ctx, *chor, pending)
			cancel()
			if err == nil {
				total += n
				batches++
				pending = pending[:0]
				return nil
			}
			backoff, ok := choreo.ChoreoRetryAfter(err)
			if !ok {
				return err
			}
			time.Sleep(backoff)
		}
		return nil
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		var ev choreo.ChoreoIngestEvent
		if err := json.Unmarshal([]byte(text), &ev); err != nil {
			return fmt.Errorf("ingest: line %d: %v", line, err)
		}
		if ev.Party == "" || ev.Instance == "" || ev.Label == "" {
			return fmt.Errorf("ingest: line %d: party, instance and label are all required", line)
		}
		pending = append(pending, ev)
		if len(pending) >= *batch {
			if err := flush(); err != nil {
				return err
			}
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if err := flush(); err != nil {
		return err
	}
	fmt.Printf("ingested %d events in %d batches\n", total, batches)
	return nil
}

func runSimulate(args []string) error {
	fs := flag.NewFlagSet("simulate", flag.ExitOnError)
	var ins, syncOps multiFlag
	fs.Var(&ins, "in", "private process XML file (repeatable)")
	fs.Var(&syncOps, "sync", "mark party.op as synchronous (repeatable)")
	walks := fs.Int("walks", 100, "number of random walks")
	seed := fs.Int64("seed", 1, "random walk seed")
	fs.Parse(args)
	procs, reg, err := loadAll(ins, syncOps)
	if err != nil {
		return err
	}
	parties := map[string]*choreo.Automaton{}
	for _, p := range procs {
		pub, err := choreo.DerivePublic(p, reg)
		if err != nil {
			return err
		}
		parties[p.Owner] = pub.Automaton
	}
	sys, err := choreo.NewSystem(parties)
	if err != nil {
		return err
	}
	res := sys.Explore(0)
	fmt.Printf("global states: %d\ncompletions: %d\ndeadlock free: %v\n",
		res.States, res.Completions, res.DeadlockFree())
	for _, f := range res.Failures {
		fmt.Println("failure:", f)
	}
	rate := sys.FailureRate(*seed, *walks, 1000)
	fmt.Printf("random-walk failure rate (%d walks): %.2f%%\n", *walks, 100*rate)
	if !res.DeadlockFree() {
		return fmt.Errorf("simulate: execution can fail (%d failures)", len(res.Failures))
	}
	return nil
}

// parseMix parses "check=4,evolve=2,..." into a LoadgenMix.
func parseMix(s string) (choreo.LoadgenMix, error) {
	var m choreo.LoadgenMix
	if strings.TrimSpace(s) == "" {
		return m, nil
	}
	for _, part := range strings.Split(s, ",") {
		kv := strings.SplitN(strings.TrimSpace(part), "=", 2)
		if len(kv) != 2 {
			return m, fmt.Errorf("bad mix entry %q (want class=weight)", part)
		}
		w, err := strconv.Atoi(kv[1])
		if err != nil || w < 0 {
			return m, fmt.Errorf("bad mix weight %q", part)
		}
		switch kv[0] {
		case "check":
			m.Check = w
		case "evolve":
			m.Evolve = w
		case "commit":
			m.Commit = w
		case "migrate":
			m.Migrate = w
		case "ingest":
			m.Ingest = w
		default:
			return m, fmt.Errorf("unknown mix class %q", kv[0])
		}
	}
	return m, nil
}

// runLoadgen drives mixed corpus traffic against a running choreod
// and prints the per-op-class throughput/latency table.
func runLoadgen(args []string) error {
	fs := flag.NewFlagSet("loadgen", flag.ExitOnError)
	addr := fs.String("addr", "http://localhost:8080", "choreod base URL (ignored with -faults)")
	faults := fs.Float64("faults", 0, "journal fault probability (0,1): self-host an embedded choreod, inject faults, verify recovery")
	duration := fs.Duration("duration", 10*time.Second, "run length (0 = use -maxops only)")
	maxOps := fs.Int64("maxops", 0, "total op budget (0 = use -duration only)")
	concurrency := fs.Int("concurrency", 4, "worker goroutines")
	mixSpec := fs.String("mix", "", "op-class weights, e.g. check=4,evolve=2,commit=1,migrate=1,ingest=4")
	seed := fs.Int64("seed", 1, "op-schedule seed")
	ingestBatch := fs.Int("ingestbatch", 16, "events per ingest op")
	prefix := fs.String("prefix", "loadgen", "choreography ID prefix for the run")
	var scenarios multiFlag
	fs.Var(&scenarios, "scenario", "corpus scenario name (repeatable; empty = all)")
	fs.Parse(args)
	mix, err := parseMix(*mixSpec)
	if err != nil {
		return fmt.Errorf("loadgen: %v", err)
	}
	if *faults > 0 {
		// Fault runs self-host the server; the flag default must not
		// masquerade as a user-chosen address.
		*addr = ""
	}
	rep, err := choreo.RunLoadgen(context.Background(), choreo.LoadgenConfig{
		Addr:        *addr,
		Faults:      *faults,
		Scenarios:   scenarios,
		Concurrency: *concurrency,
		Duration:    *duration,
		MaxOps:      *maxOps,
		Mix:         mix,
		Seed:        *seed,
		IngestBatch: *ingestBatch,
		Prefix:      *prefix,
	})
	if err != nil {
		return fmt.Errorf("loadgen: %v", err)
	}
	fmt.Print(rep.Table())
	return nil
}
