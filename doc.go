// Package choreo is a Go implementation of the controlled-evolution
// framework for process choreographies of Rinderle, Wombacher and
// Reichert ("On the Controlled Evolution of Process Choreographies",
// ICDE 2006).
//
// A choreography is a set of partner processes interacting by message
// exchange. Each party implements a *private* process (a
// block-structured BPEL subset, see Process); its observable behavior
// is the *public* process, an annotated finite state automaton
// (Automaton) derived automatically together with a mapping table
// relating automaton states back to BPEL blocks (DerivePublic).
// Bilateral consistency — a non-empty annotated intersection of the
// partners' mutual views — guarantees deadlock-free interaction. The
// automaton kernel interns message labels into dense integer symbols
// (internal/label's Interner; one interner is shared per choreography
// in the service layer), so the hot operators — determinization,
// minimization, products, the viability fixpoint — run on integers
// and allocation-lean scratch buffers instead of hashing label
// strings; see ARCHITECTURE.md's "Compute kernel" section.
// TestScenarioCheckAllocs pins the allocations of one scenario check.
//
// When a party changes its private process, the framework recreates
// the public view, classifies the change (additive/subtractive ×
// invariant/variant) and, for variant changes, computes for every
// affected partner a propagation plan: the difference automaton, the
// adapted partner public process, the private-process regions to
// touch, and ready-to-apply adaptation suggestions. The partner stays
// autonomous: suggestions are applied explicitly.
//
// # Quick start
//
//	reg := choreo.NewRegistry()
//	reg.AddOperation("A", "pingOp", false)
//	reg.AddOperation("B", "pongOp", false)
//
//	server := &choreo.Process{Name: "server", Owner: "A",
//		Body: &choreo.Sequence{BlockName: "srv", Children: []choreo.Activity{
//			&choreo.Receive{BlockName: "ping", Partner: "B", Op: "pingOp"},
//			&choreo.Invoke{BlockName: "pong", Partner: "B", Op: "pongOp"},
//		}}}
//	client := &choreo.Process{Name: "client", Owner: "B",
//		Body: &choreo.Sequence{BlockName: "cli", Children: []choreo.Activity{
//			&choreo.Invoke{BlockName: "ping", Partner: "A", Op: "pingOp"},
//			&choreo.Receive{BlockName: "pong", Partner: "A", Op: "pongOp"},
//		}}}
//
//	c := choreo.NewChoreography(reg)
//	c.AddParty(server)
//	c.AddParty(client)
//	report, _ := c.Check()          // bilateral consistency of all pairs
//	evo, _ := c.Evolve("A", choreo.Delete{Path: choreo.Path{"Sequence:srv", "Invoke:pong"}})
//	// evo.Impacts[0].Classification → subtractive, variant
//	// evo.Impacts[0].Suggestions    → how the client should adapt
//
// The runnable examples under examples/ walk through the paper's
// procurement scenario end to end, including both propagation
// scenarios (Secs. 5.2 and 5.3), service discovery and instance
// migration.
//
// # Service layer (choreod, API v2)
//
// Beyond the in-process library, the framework runs as a long-lived
// service that owns choreography state and serves concurrent
// check/evolve/migrate traffic:
//
//	st  := choreo.NewChoreographyStore(             // sharded COW store
//		choreo.WithStoreShards(32),
//		choreo.WithStoreCacheCap(4096))
//	srv := choreo.NewChoreoServer(st)               // JSON HTTP API (/v2/)
//	http.ListenAndServe(":8080", srv.Handler())
//
// or, from the command line, "choreoctl serve". The store
// (ChoreographyStore) keeps every choreography behind an atomically
// published copy-on-write snapshot: readers proceed without locks,
// writers commit under optimistic concurrency (ErrStoreConflict when
// the analyzed base version is stale). Every store operation takes a
// leading context.Context; the expensive check and evolve paths honor
// cancellation mid-computation. The expensive aFSA work is amortized
// across requests — bilateral views are memoized per party version and
// bilateral-consistency results are cached keyed by the two party
// versions (optionally bounded by WithStoreCacheCap), so a commit
// invalidates exactly the pairs the changed party touches.
//
// The v2 HTTP API treats a change the way the paper does — as one
// transaction: an evolve call carries a list of operations (EvolveOp)
// applied in order and classified once against the combined delta, and
// a batch endpoint registers or updates many parties in one commit.
// Snapshot versions travel as ETags; writes accept If-Match and answer
// 412 {code: "stale_version"} when the precondition misses, while an
// apply-suggestion race on a changed partner stays 409
// {code: "conflict"}. Listings paginate with limit/page_token cursors,
// and every error is a uniform {code, message, details} envelope
// (ChoreoCode* constants, matched with ChoreoErrIs). ChoreoClient is
// the typed, context-first Go client. See internal/server for the wire
// types and docs/api.md for the full wire reference with curl
// examples.
//
// The store is durable on request: OpenChoreographyStore with
// WithStoreJournal(dir) write-ahead logs every store mutation into
// dir and recovers the previous state (snapshot + log tail, torn
// tails truncated) on open, re-deriving all automata into one shared
// symbol space per choreography. Server-layer ephemera — discovery
// publications, pending evolve analyses — are not journaled.
// Checkpoint compacts the log — online via POST /v2/admin/checkpoint
// (ChoreoClient.Checkpoint), or on SIGTERM when serving with
// "choreoctl serve -data dir". See docs/persistence.md for file
// formats and recovery semantics.
//
// # Bulk instance migration
//
// After a change is committed, every in-flight conversation must be
// classified: an instance migrates to the new schema iff its trace
// replays on the new public process into a viable state (the
// ADEPT-style compliance criterion the paper points to in Sec. 8).
// The store answers per-party what-ifs (ChoreographyStore.Migrate,
// optionally against a pending evolution), and sweeps whole
// populations with the bulk engine:
//
//	job, err := st.MigrateAll(ctx, "procurement", 8)   // 8 workers
//	v := job.Snapshot()                                // progress counters
//	stuck := job.Stranded()                            // who cannot move, and why
//
// A sweep iterates the choreography's instance shards on a bounded
// worker pool — no choreography-wide lock — classifying through
// per-party compliance checkers that are determinized once per party
// version and shared by all workers. The job (BulkMigrationJob) is
// idempotent and resumable: its identity is (choreography, committed
// version), re-running a completed job returns the finished report
// untouched, and a canceled sweep keeps whole committed shards so the
// next run finishes the remainder. StartMigration is the asynchronous
// variant behind POST /v2/choreographies/{id}/migrations, which the
// client wraps as StartMigration/WaitMigration/MigrationStranded and
// the CLI as "choreoctl migrate". See ARCHITECTURE.md for where the
// engine sits in the system.
package choreo
