package choreo

import (
	"context"
	"net/http"
	"time"

	"repro/internal/instance"
	"repro/internal/loadgen"
	"repro/internal/mapping"
	"repro/internal/migrate"
	"repro/internal/runtime"
	"repro/internal/server"
	"repro/internal/store"
)

// Serving layer (choreod): a sharded, versioned, cache-aware
// choreography store plus the /v2/ JSON HTTP service and typed client
// over it.
type (
	// ChoreographyStore is the concurrent in-memory choreography
	// store: copy-on-write snapshots per choreography, memoized
	// bilateral views and a version-keyed consistency-result cache.
	// All operations take a leading context honoring cancellation.
	ChoreographyStore = store.Store
	// StoreOption configures NewChoreographyStore.
	StoreOption = store.Option
	// ChoreoServer is the choreod HTTP front end.
	ChoreoServer = server.Server
	// ChoreoClient is the typed client for the choreod /v2/ API:
	// context-first, machine-readable error codes, pagination.
	ChoreoClient = server.Client
	// EvolveOp is the wire encoding of one structural change operation
	// inside a /v2/ evolve transaction.
	EvolveOp = server.OpJSON
)

// Store construction options.
var (
	// WithStoreShards partitions the choreography ID space.
	WithStoreShards = store.WithShards
	// WithStoreCacheCap bounds the per-choreography consistency cache.
	WithStoreCacheCap = store.WithCacheCap
	// WithStoreJournal makes the store durable: mutations are written
	// ahead to a journal in the given directory and recovered on open.
	// Pass it to OpenChoreographyStore (NewChoreographyStore panics on
	// it, since recovery can fail). See docs/persistence.md.
	WithStoreJournal = store.WithJournal
	// WithStoreJournalFsync fsyncs the journal on every append
	// (durability across power loss, at per-commit latency cost).
	WithStoreJournalFsync = store.WithJournalFsync
)

// ErrStoreConflict is the store's optimistic-concurrency error: the
// analyzed base version is stale.
var ErrStoreConflict = store.ErrConflict

// Machine-readable choreod /v2/ error codes (ChoreoErrIs matches them).
const (
	ChoreoCodeStaleVersion = server.CodeStaleVersion
	ChoreoCodeUnavailable  = server.CodeUnavailable
)

// ChoreoErrIs reports whether err is a choreod API error with the
// given /v2/ code.
func ChoreoErrIs(err error, code string) bool { return server.ErrIs(err, code) }

// Streaming event ingestion: the batch endpoint
// POST /v2/choreographies/{id}/instances:events advancing tracked
// per-instance state as events arrive (see docs/ingest.md).
type (
	// ChoreoIngestEvent is the wire shape of one observed instance
	// event on the /v2/ API.
	ChoreoIngestEvent = server.IngestEventJSON
	// InstanceLiveState is one tracked instance's ingestion-time state:
	// trace position, schema tag, conformance status and deviation
	// point.
	InstanceLiveState = store.InstanceState
)

// Ingestion tuning options for NewChoreographyStore /
// OpenChoreographyStore.
var (
	// WithStoreIngestWorkers sizes the per-choreography ingestion
	// worker pool.
	WithStoreIngestWorkers = store.WithIngestWorkers
	// WithStoreIngestQueueCap bounds each ingestion lane's queue; a
	// full lane rejects batches with backpressure.
	WithStoreIngestQueueCap = store.WithIngestQueueCap
)

// ChoreoRetryAfter extracts the backoff hint of a resource_exhausted
// (ingestion backpressure) choreod API error; ok is false when err
// carries no hint.
func ChoreoRetryAfter(err error) (time.Duration, bool) { return server.RetryAfter(err) }

// BulkMigrationJob is one choreography-wide sweep moving every tracked
// instance to the current committed snapshot
// (ChoreographyStore.MigrateAll / StartMigration, served as
// POST /v2/choreographies/{id}/migrations): idempotent and resumable,
// with per-shard checkpoints, progress counters and a stranded-instance
// report.
type BulkMigrationJob = migrate.Job

// NewChoreographyStore returns an empty store configured by opts
// (WithStoreShards, WithStoreCacheCap).
func NewChoreographyStore(opts ...StoreOption) *ChoreographyStore { return store.New(opts...) }

// OpenChoreographyStore is NewChoreographyStore plus durability: with
// WithStoreJournal among opts it opens the journal, recovers the
// previous state (snapshot + write-ahead log tail) and write-ahead
// logs every subsequent mutation. Without a journal option it is
// equivalent to NewChoreographyStore.
func OpenChoreographyStore(opts ...StoreOption) (*ChoreographyStore, error) {
	return store.Open(opts...)
}

// NewChoreoServer returns the choreod HTTP service over st.
func NewChoreoServer(st *ChoreographyStore) *ChoreoServer { return server.New(st) }

// NewChoreoClient returns a client for the choreod service at base;
// httpClient may be nil.
func NewChoreoClient(base string, httpClient *http.Client) *ChoreoClient {
	return server.NewClient(base, httpClient)
}

// InferRegistry builds a WSDL registry covering every operation the
// processes mention ("party.op" entries in syncOps mark synchronous
// operations) — the registry the service infers when parties register
// by XML.
func InferRegistry(procs []*Process, syncOps []string) (*Registry, error) {
	return mapping.InferRegistry(procs, syncOps)
}

// Choreography execution (the empirical substrate validating the
// consistency criterion).
type (
	// System is a set of parties ready for joint synchronous
	// execution.
	System = runtime.System
	// WalkResult is one random execution.
	WalkResult = runtime.WalkResult
)

// NewSystem builds an executable system from public processes keyed by
// party name.
func NewSystem(parties map[string]*Automaton) (*System, error) {
	return runtime.NewSystem(parties)
}

// Instance migration (the paper's Sec. 8 extension).
type (
	// Instance is a running conversation identified by its trace.
	Instance = instance.Instance
	// MigrationStatus classifies an instance against a new schema.
	MigrationStatus = instance.Status
	// MigrationReport summarizes a migration.
	MigrationReport = instance.Report
)

// Migration statuses.
const (
	Migratable    = instance.Migratable
	NonReplayable = instance.NonReplayable
	Unviable      = instance.Unviable
)

// Workload layer: the mixed-traffic load generator over the scenario
// corpus.
type (
	// LoadgenConfig parameterizes one load run against a choreod.
	LoadgenConfig = loadgen.Config
	// LoadgenMix weighs the load generator's op classes.
	LoadgenMix = loadgen.Mix
	// LoadgenReport is a load run's per-class throughput/latency
	// summary.
	LoadgenReport = loadgen.Report
)

// RunLoadgen drives mixed corpus traffic against a running choreod
// and reports per-op-class throughput and latency quantiles.
func RunLoadgen(ctx context.Context, cfg LoadgenConfig) (*LoadgenReport, error) {
	return loadgen.Run(ctx, cfg)
}
