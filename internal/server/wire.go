package server

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"

	"repro/internal/change"
	"repro/internal/ingest"
	"repro/internal/journal"
	"repro/internal/store"
)

// ---- wire types ----

// CreateRequest creates a choreography.
type CreateRequest struct {
	ID string `json:"id"`
	// Sync lists "party.op" pairs to treat as synchronous operations.
	Sync []string `json:"sync,omitempty"`
}

// PartyRequest carries a private process as BPEL XML.
type PartyRequest struct {
	XML string `json:"xml"`
}

// PartyInfo summarizes one registered party.
type PartyInfo struct {
	Name    string `json:"name"`
	Version uint64 `json:"version"`
	// States/Transitions size the derived public process.
	States      int    `json:"states"`
	Transitions int    `json:"transitions"`
	XML         string `json:"xml,omitempty"`
}

// ChoreographyInfo summarizes one choreography.
type ChoreographyInfo struct {
	ID      string      `json:"id"`
	Version uint64      `json:"version"`
	Parties []PartyInfo `json:"parties"`
}

// PairJSON is one pair's consistency status.
type PairJSON struct {
	A          string `json:"a"`
	B          string `json:"b"`
	Consistent bool   `json:"consistent"`
	Cached     bool   `json:"cached"`
}

// CheckResponse reports pairwise consistency.
type CheckResponse struct {
	ID         string     `json:"id"`
	Version    uint64     `json:"version"`
	Consistent bool       `json:"consistent"`
	Pairs      []PairJSON `json:"pairs"`
}

// PlanJSON summarizes one propagation plan.
type PlanJSON struct {
	Kind string `json:"kind"`
	// DiffStates/NewPartnerPublicStates size the difference automaton
	// and adapted partner public process.
	DiffStates             int      `json:"diffStates"`
	NewPartnerPublicStates int      `json:"newPartnerPublicStates"`
	Hints                  []string `json:"hints,omitempty"`
	Regions                []string `json:"regions,omitempty"`
}

// SuggestionJSON is one proposed partner adaptation.
type SuggestionJSON struct {
	Index       int    `json:"index"`
	Description string `json:"description"`
	// Executable reports whether the suggestion carries a ready
	// operation that /apply can run; otherwise it is a manual
	// recommendation.
	Executable bool   `json:"executable"`
	Op         string `json:"op,omitempty"`
}

// ImpactJSON is the per-partner effect of a change.
type ImpactJSON struct {
	Partner     string           `json:"partner"`
	ViewChanged bool             `json:"viewChanged"`
	Kind        string           `json:"kind,omitempty"`
	Scope       string           `json:"scope,omitempty"`
	Plans       []PlanJSON       `json:"plans,omitempty"`
	Suggestions []SuggestionJSON `json:"suggestions,omitempty"`
}

// CommitResponse acknowledges a commit.
type CommitResponse struct {
	Choreography string `json:"choreography"`
	Version      uint64 `json:"version"`
}

// ApplyRequest applies suggestions to a partner.
type ApplyRequest struct {
	Partner string `json:"partner"`
	// Suggestions are indices into the partner impact's suggestion
	// list; empty means every executable suggestion.
	Suggestions []int `json:"suggestions,omitempty"`
}

// InstancesRequest records running instances: either explicit traces
// or a seeded random sample.
type InstancesRequest struct {
	Instances []InstanceJSON `json:"instances,omitempty"`
	Sample    *SampleJSON    `json:"sample,omitempty"`
}

// InstanceJSON is one running conversation.
type InstanceJSON struct {
	ID    string   `json:"id"`
	Trace []string `json:"trace"`
}

// SampleJSON parameterizes instance sampling.
type SampleJSON struct {
	Seed   int64 `json:"seed"`
	N      int   `json:"n"`
	MaxLen int   `json:"maxLen"`
}

// MigrateRequest classifies a party's instances; with Evolution set,
// against that pending evolution's new public process (what-if before
// committing), otherwise against the party's current one.
type MigrateRequest struct {
	Evolution string `json:"evolution,omitempty"`
}

// MigrateResponse is the migration report.
type MigrateResponse struct {
	Total         int      `json:"total"`
	Migratable    int      `json:"migratable"`
	NonReplayable int      `json:"nonReplayable"`
	Unviable      int      `json:"unviable"`
	Blocked       []string `json:"blocked,omitempty"`
}

// PublishRequest publishes a party's public process for discovery.
// With For set, the bilateral view τ_For(party) is published instead —
// the behavior the service exposes to that prospective partner (the
// idiom of paper Sec. 6 matchmaking).
type PublishRequest struct {
	Name         string `json:"name"`
	Choreography string `json:"choreography"`
	Party        string `json:"party"`
	For          string `json:"for,omitempty"`
}

// MatchRequest queries discovery with a party's public process. Limit
// and PageToken paginate the result.
type MatchRequest struct {
	Choreography string `json:"choreography"`
	Party        string `json:"party"`
	// Matcher is "consistent" (default; the paper's matchmaking) or
	// "overlap" (the keyword-style baseline).
	Matcher   string `json:"matcher,omitempty"`
	Limit     int    `json:"limit,omitempty"`
	PageToken string `json:"pageToken,omitempty"`
}

// MatchResponse lists the matched services.
type MatchResponse struct {
	Matcher string   `json:"matcher"`
	Matches []string `json:"matches"`
	// NextPageToken continues a paginated /v2/ match; empty when the
	// listing is complete.
	NextPageToken string `json:"nextPageToken,omitempty"`
}

// StatsResponse reports store and server counters.
type StatsResponse struct {
	Choreographies    int    `json:"choreographies"`
	ConsistencyHits   uint64 `json:"consistencyHits"`
	ConsistencyMisses uint64 `json:"consistencyMisses"`
	ViewHits          uint64 `json:"viewHits"`
	ViewMisses        uint64 `json:"viewMisses"`
	Commits           uint64 `json:"commits"`
	Conflicts         uint64 `json:"conflicts"`
	Evolutions        uint64 `json:"evolutions"`
	PendingEvolutions int    `json:"pendingEvolutions"`
	Requests          uint64 `json:"requests"`
	// TrackedInstances counts recorded instances across every
	// choreography; InstancesByChoreography breaks the count down per
	// choreography ID.
	TrackedInstances        int            `json:"trackedInstances"`
	InstancesByChoreography map[string]int `json:"instancesByChoreography,omitempty"`
	// EventsIngested / IngestRejected / OnlineMigrations are the
	// streaming-ingestion counters: events durably applied, events
	// refused with resource_exhausted backpressure, and instances moved
	// to a newer schema online as their next event arrived.
	EventsIngested   uint64 `json:"eventsIngested"`
	IngestRejected   uint64 `json:"ingestRejected"`
	OnlineMigrations uint64 `json:"onlineMigrations"`
	// IngestLaneRejects breaks IngestRejected down per ingestion lane,
	// summed across choreographies — a single hot lane shows up here.
	IngestLaneRejects []uint64 `json:"ingestLaneRejects,omitempty"`
	// Degraded reports a store that lost its journal and went
	// read-only; LastError carries the unrecoverable write error behind
	// it. Mirrored by GET /v2/readyz answering 503.
	Degraded  bool   `json:"degraded,omitempty"`
	LastError string `json:"lastError,omitempty"`
}

// Error codes of the /v2/ error envelope. They are part of the API
// contract: clients branch on codes, not on message strings.
const (
	CodeInvalidArgument   = "invalid_argument"   // 400
	CodeNotFound          = "not_found"          // 404
	CodeAlreadyExists     = "already_exists"     // 409
	CodeConflict          = "conflict"           // 409
	CodeStaleVersion      = "stale_version"      // 412
	CodePayloadTooLarge   = "payload_too_large"  // 413 (request body past maxBodyBytes, or a journal record past journal.MaxRecordBytes)
	CodeResourceExhausted = "resource_exhausted" // 429 (backpressure; details carry retryAfter seconds)
	CodeCancelled         = "cancelled"          // 503
	CodeUnavailable       = "unavailable"        // 503 (degraded read-only store, or shutting down)
	CodeInternal          = "internal"           // 500
)

// ErrorEnvelope is the uniform machine-readable /v2/ error body.
type ErrorEnvelope struct {
	Code    string         `json:"code"`
	Message string         `json:"message"`
	Details map[string]any `json:"details,omitempty"`
}

// ListResponse is one page of choreography IDs.
type ListResponse struct {
	Choreographies []string `json:"choreographies"`
	NextPageToken  string   `json:"nextPageToken,omitempty"`
}

// BatchPartiesRequest registers or updates several parties as one
// change transaction.
type BatchPartiesRequest struct {
	Parties []PartyRequest `json:"parties"`
}

// BatchPartiesResponse reports the committed batch.
type BatchPartiesResponse struct {
	Choreography string      `json:"choreography"`
	Version      uint64      `json:"version"`
	Parties      []PartyInfo `json:"parties"`
}

// BatchCheckRequest checks several choreographies in one call.
type BatchCheckRequest struct {
	IDs []string `json:"ids"`
}

// BatchCheckResult is one choreography's outcome inside a batch check:
// either a report or an error envelope, never both.
type BatchCheckResult struct {
	ID     string         `json:"id"`
	Report *CheckResponse `json:"report,omitempty"`
	Error  *ErrorEnvelope `json:"error,omitempty"`
}

// BatchCheckResponse collects the per-choreography outcomes.
type BatchCheckResponse struct {
	Results []BatchCheckResult `json:"results"`
}

// OpJSON is the wire encoding of one structural change operation of a
// /v2/ evolve transaction; change.Spec documents the kinds and their
// fields.
type OpJSON = change.Spec

// decodeOps translates a wire op list into a change transaction.
func decodeOps(party string, ops []OpJSON) ([]change.Operation, error) {
	out, err := change.DecodeSpecs(party, ops)
	if err != nil {
		return nil, badRequest("%v", err)
	}
	return out, nil
}

// EvolveOpsRequest submits a /v2/ change transaction: one or more
// operations applied in order and analyzed as a unit.
type EvolveOpsRequest struct {
	Party string   `json:"party"`
	Ops   []OpJSON `json:"ops"`
}

// EvolveOpsResponse is the /v2/ analysis of one change transaction.
// The base snapshot version travels in the ETag response header, not
// the body; the client fills BaseVersion from it.
type EvolveOpsResponse struct {
	Evolution        string       `json:"evolution"`
	Choreography     string       `json:"choreography"`
	Party            string       `json:"party"`
	Ops              []string     `json:"ops"`
	PublicChanged    bool         `json:"publicChanged"`
	NeedsPropagation bool         `json:"needsPropagation"`
	Impacts          []ImpactJSON `json:"impacts"`
	// BaseVersion is client-side only (parsed from the ETag header).
	BaseVersion uint64 `json:"-"`
}

// ServicesResponse is one page of published discovery service names.
type ServicesResponse struct {
	Services      []string `json:"services"`
	NextPageToken string   `json:"nextPageToken,omitempty"`
}

// MigrationStartRequest starts (or resumes) the bulk migration of a
// choreography's tracked instances to its current committed snapshot.
type MigrationStartRequest struct {
	// Workers bounds the sweep's worker pool (<= 0 picks the server
	// default).
	Workers int `json:"workers,omitempty"`
}

// StrandedJSON is one instance that cannot move to the target version.
type StrandedJSON struct {
	Party string `json:"party"`
	ID    string `json:"id"`
	// Status is "non-replayable" (the trace is no prefix of the new
	// behavior) or "unviable" (it replays into a dead end).
	Status string `json:"status"`
}

// MigrationJobJSON is the observable state of one bulk-migration job.
// Jobs are idempotent per (choreography, targetVersion): starting the
// same migration twice returns the same job.
type MigrationJobJSON struct {
	Job           string `json:"job"`
	Choreography  string `json:"choreography"`
	TargetVersion uint64 `json:"targetVersion"`
	// Status is "running", "done", "canceled" (resumable) or "failed"
	// (retryable; see Error).
	Status string `json:"status"`
	// Shards/ShardsDone report sweep progress; counters below cover
	// committed shards only and never double-count across a
	// cancel/resume cycle.
	Shards        int `json:"shards"`
	ShardsDone    int `json:"shardsDone"`
	Total         int `json:"total"`
	Migratable    int `json:"migratable"`
	NonReplayable int `json:"nonReplayable"`
	Unviable      int `json:"unviable"`
	// Stranded is one page of the stranded-instance report (sorted by
	// party, then instance ID); NextPageToken continues it.
	Stranded      []StrandedJSON `json:"stranded,omitempty"`
	NextPageToken string         `json:"nextPageToken,omitempty"`
	Error         string         `json:"error,omitempty"`
}

// MigrationListResponse is one page of a choreography's migration
// jobs (without their stranded reports).
type MigrationListResponse struct {
	Jobs          []MigrationJobJSON `json:"jobs"`
	NextPageToken string             `json:"nextPageToken,omitempty"`
}

// IngestEventJSON is one observed message of a running instance: the
// exchanged label, attributed to the tracking party's instance ID. An
// unknown (party, instance) pair starts a fresh instance at the
// current schema version.
type IngestEventJSON struct {
	Party    string `json:"party"`
	Instance string `json:"instance"`
	Label    string `json:"label"`
}

// IngestRequest is one event batch for
// POST /v2/choreographies/{id}/instances:events. Events of one
// instance apply in batch order; the whole batch is accepted or — when
// an ingestion lane's queue is full — rejected as a unit with
// resource_exhausted and a retryAfter hint (see docs/ingest.md).
type IngestRequest struct {
	Events []IngestEventJSON `json:"events"`
}

// IngestResponse acknowledges a durably applied event batch.
type IngestResponse struct {
	Ingested int `json:"ingested"`
}

// CheckpointResponse acknowledges a journal compaction
// (POST /v2/admin/checkpoint).
type CheckpointResponse struct {
	// LSN is the last journaled mutation the new snapshot covers.
	LSN uint64 `json:"lsn"`
	// SnapshotBytes is the size of the snapshot that was written.
	SnapshotBytes int `json:"snapshotBytes"`
}

// ---- error mapping ----

var (
	errBadRequest = errors.New("bad request")
	// errStale marks an optimistic-concurrency failure surfaced through
	// ETag/If-Match on /v2/: the caller's snapshot version is outdated.
	errStale = errors.New("stale version")
	// errTooLarge marks a request body past maxBodyBytes.
	errTooLarge = errors.New("payload too large")
)

func badRequest(format string, args ...any) error {
	return fmt.Errorf("%w: %s", errBadRequest, fmt.Sprintf(format, args...))
}

// envelope classifies err into the /v2/ status and error body.
func envelope(err error) (int, ErrorEnvelope) {
	env := ErrorEnvelope{Message: err.Error()}
	var status int
	var bp *ingest.BackpressureError
	switch {
	case errors.As(err, &bp):
		status, env.Code = http.StatusTooManyRequests, CodeResourceExhausted
		env.Details = map[string]any{"retryAfter": bp.RetryAfter.Seconds(), "lane": bp.Lane}
	case errors.Is(err, ingest.ErrBackpressure):
		status, env.Code = http.StatusTooManyRequests, CodeResourceExhausted
	case errors.Is(err, errStale):
		status, env.Code = http.StatusPreconditionFailed, CodeStaleVersion
	case errors.Is(err, errTooLarge), errors.Is(err, journal.ErrTooLarge):
		status, env.Code = http.StatusRequestEntityTooLarge, CodePayloadTooLarge
	case errors.Is(err, store.ErrNotFound):
		status, env.Code = http.StatusNotFound, CodeNotFound
	case errors.Is(err, store.ErrExists):
		status, env.Code = http.StatusConflict, CodeAlreadyExists
	case errors.Is(err, store.ErrConflict):
		status, env.Code = http.StatusConflict, CodeConflict
	case errors.Is(err, store.ErrInvalid), errors.Is(err, errBadRequest):
		status, env.Code = http.StatusBadRequest, CodeInvalidArgument
	case errors.Is(err, store.ErrDegraded):
		// The store lost its journal and went read-only: reads keep
		// working, mutations answer 503 until the operator recovers the
		// volume and restarts (see docs/resilience.md).
		status, env.Code = http.StatusServiceUnavailable, CodeUnavailable
		env.Details = map[string]any{"degraded": true}
	case errors.Is(err, store.ErrClosed):
		status, env.Code = http.StatusServiceUnavailable, CodeUnavailable
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		status, env.Code = http.StatusServiceUnavailable, CodeCancelled
	default:
		status, env.Code = http.StatusInternalServerError, CodeInternal
	}
	return status, env
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// writeErrorV2 writes the /v2/ {code, message, details} envelope.
func writeErrorV2(w http.ResponseWriter, err error) {
	status, env := envelope(err)
	writeJSON(w, status, env)
}

// maxBodyBytes caps a JSON body in either direction: the /v2/ adapter
// caps a request body (decode answers more with 413
// payload_too_large), and the client reads no more of a response, so a
// misbehaving peer cannot make either side buffer unbounded data.
const maxBodyBytes = 8 << 20

// decode reads the request's JSON body into v, refusing unknown fields,
// anything but whitespace after the first JSON value, and any body past
// maxBodyBytes.
func decode(r *http.Request, v any) error {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	err := dec.Decode(v)
	trailing := err == nil
	if trailing {
		if err = dec.Decode(&struct{}{}); err == io.EOF {
			return nil
		}
	}
	var tooLarge *http.MaxBytesError
	switch {
	case errors.As(err, &tooLarge):
		return fmt.Errorf("%w: request body exceeds %d bytes", errTooLarge, tooLarge.Limit)
	case trailing:
		return badRequest("decoding body: data after the first JSON value")
	}
	return badRequest("decoding body: %v", err)
}

// noParams reads the body of a route that takes no parameters. It
// accepts an empty body or {}, with or without whitespace; anything
// else is a bad request, so a precondition sent in the body is
// refused instead of ignored. It reads into a small buffer, not a JSON
// decoder, because the typed client sends {} on every check.
func noParams(r *http.Request) error {
	var buf [16]byte
	n, err := io.ReadFull(r.Body, buf[:])
	body := bytes.TrimSpace(buf[:n])
	if len(body) >= 2 && body[0] == '{' && body[len(body)-1] == '}' {
		body = bytes.TrimSpace(body[1 : len(body)-1])
	}
	if (err == io.EOF || err == io.ErrUnexpectedEOF) && len(body) == 0 {
		return nil
	}
	return badRequest("this route takes no parameters: send an empty body or {}")
}

// ---- ETag / If-Match ----

// etagOf renders a snapshot version as a strong entity tag.
func etagOf(version uint64) string { return `"` + strconv.FormatUint(version, 10) + `"` }

// ifMatch parses the If-Match header into a snapshot version. ok is
// false when the header is absent or the wildcard "*" (no precondition
// to enforce); a malformed value is a bad request.
func ifMatch(r *http.Request) (version uint64, ok bool, err error) {
	raw := strings.TrimSpace(r.Header.Get("If-Match"))
	if raw == "" || raw == "*" {
		return 0, false, nil
	}
	raw = strings.TrimPrefix(raw, "W/")
	raw = strings.Trim(raw, `"`)
	v, perr := strconv.ParseUint(raw, 10, 64)
	if perr != nil {
		return 0, false, badRequest("malformed If-Match %q: want a snapshot version", r.Header.Get("If-Match"))
	}
	return v, true, nil
}

// staleVersion builds the 412 error for a precondition that missed.
func staleVersion(want, current uint64) error {
	return fmt.Errorf("%w: If-Match %d, current snapshot version %d", errStale, want, current)
}

// ---- cursor pagination ----

// maxPageLimit is the server-side maximum page size of every
// paginated /v2/ route (query-parameter and body limits alike): a
// larger client-supplied limit is clamped, never honored, so a single
// request cannot serialize an unbounded tenant population. Documented
// in docs/api.md — change both together.
const maxPageLimit = 1000

// defaultPageLimit is the page size when the client sends no limit
// (or 0).
const defaultPageLimit = maxPageLimit

func encodePageToken(last string) string {
	return base64.RawURLEncoding.EncodeToString([]byte(last))
}

func decodePageToken(tok string) (string, error) {
	if tok == "" {
		return "", nil
	}
	raw, err := base64.RawURLEncoding.DecodeString(tok)
	if err != nil {
		return "", badRequest("malformed page token %q", tok)
	}
	return string(raw), nil
}

// paginate slices one page out of the sorted name list: entries
// strictly after the cursor, at most limit of them, plus the token of
// the next page (empty when done). limit <= 0 picks defaultPageLimit.
func paginate(sorted []string, limit int, pageToken string) (page []string, next string, err error) {
	cursor, err := decodePageToken(pageToken)
	if err != nil {
		return nil, "", err
	}
	if limit <= 0 {
		limit = defaultPageLimit
	}
	if limit > maxPageLimit {
		limit = maxPageLimit
	}
	start := 0
	if cursor != "" {
		start = sort.SearchStrings(sorted, cursor)
		if start < len(sorted) && sorted[start] == cursor {
			start++
		}
	}
	end := start + limit
	if end >= len(sorted) {
		return sorted[start:], "", nil
	}
	return sorted[start:end], encodePageToken(sorted[end-1]), nil
}

// pageQuery reads the limit/page_token query parameters, clamping
// limit to maxPageLimit — an arbitrarily large value must never reach
// a pagination loop or allocation site.
func pageQuery(r *http.Request) (limit int, token string, err error) {
	token = r.URL.Query().Get("page_token")
	if raw := r.URL.Query().Get("limit"); raw != "" {
		limit, err = strconv.Atoi(raw)
		if err != nil || limit < 0 {
			return 0, "", badRequest("malformed limit %q", raw)
		}
		if limit > maxPageLimit {
			limit = maxPageLimit
		}
	}
	return limit, token, nil
}
