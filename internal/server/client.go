package server

import (
	"bytes"
	"context"
	cryptorand "crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"repro/internal/bpel"
)

// Client is a typed client for the choreod /v2/ HTTP API. Every method
// takes a leading context governing the request; errors carry the
// machine-readable /v2/ code (see APIError and ErrIs). The zero value
// is unusable; use NewClient.
//
// Retries are off by default; SetRetry arms the retry/backoff policy.
// Commit and EvolveOps always carry an auto-generated Idempotency-Key,
// so their retries apply exactly once server-side.
type Client struct {
	base  string
	http  *http.Client
	retry Retry
}

// Retry is the client's retry/backoff contract (docs/resilience.md):
// exponential backoff with jitter, honoring the server's retryAfter
// hint on backpressure, capped in attempts and total elapsed time.
// Only calls that are safe to re-send retry: reads, ingest batches
// (rejected as a unit — nothing applied), and mutations carrying an
// Idempotency-Key. An unkeyed POST that fails mid-flight is never
// retried: the client cannot know whether it applied.
type Retry struct {
	// MaxAttempts is the total number of tries including the first;
	// values <= 1 disable retries (the zero policy is "no retries").
	MaxAttempts int
	// BaseDelay seeds the exponential backoff (default 50ms); attempt n
	// waits BaseDelay·2^(n-1), capped at MaxDelay (default 2s). The
	// server's retryAfter hint overrides a shorter computed delay.
	BaseDelay time.Duration
	MaxDelay  time.Duration
	// MaxElapsed caps the total time spent across attempts and
	// backoffs; 0 means no cap beyond the context deadline.
	MaxElapsed time.Duration
	// Jitter randomizes each delay downward by up to this fraction
	// (0..1, default 0.2) so synchronized clients do not stampede.
	Jitter float64
}

// SetRetry arms (or, with a zero policy, disarms) the retry policy for
// every subsequent call on this client. Not safe to call concurrently
// with in-flight requests.
func (c *Client) SetRetry(r Retry) { c.retry = r }

// backoff computes the delay before the given retry (attempt counts
// the tries already made, so the first retry is attempt 1).
func (p Retry) backoff(attempt int, hint time.Duration) time.Duration {
	base := p.BaseDelay
	if base <= 0 {
		base = 50 * time.Millisecond
	}
	maxDelay := p.MaxDelay
	if maxDelay <= 0 {
		maxDelay = 2 * time.Second
	}
	d := base
	for i := 1; i < attempt && d < maxDelay; i++ {
		d *= 2
	}
	if d > maxDelay {
		d = maxDelay
	}
	if hint > d {
		d = hint
	}
	jitter := p.Jitter
	if jitter == 0 {
		jitter = 0.2
	}
	if jitter < 0 || jitter > 1 {
		jitter = 0.2
	}
	return d - time.Duration(jitter*rand.Float64()*float64(d))
}

// retryDecision classifies an error of one attempt: whether re-sending
// is safe and useful, and any server-provided backoff hint.
func retryDecision(err error, idempotent bool) (retryable bool, hint time.Duration) {
	var apiErr *APIError
	if errors.As(err, &apiErr) {
		switch {
		case apiErr.Code == CodeResourceExhausted:
			// Backpressure rejects the batch as a unit — nothing was
			// applied, so even an unkeyed mutation is safe to re-send.
			hint, _ := RetryAfter(err)
			return true, hint
		case apiErr.Status == http.StatusServiceUnavailable:
			// Degraded store, shutdown, or a cancelled upstream: the
			// request may have applied, so only idempotent calls retry.
			return idempotent, 0
		}
		return false, 0
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false, 0
	}
	// Transport error — connection refused, reset mid-flight. The
	// request may have reached the server, so same rule as 503.
	return idempotent, 0
}

// newIdempotencyKey mints a unique key for one logical mutation; every
// retry of that mutation re-sends the same key.
func newIdempotencyKey() string {
	var b [16]byte
	if _, err := cryptorand.Read(b[:]); err != nil {
		// The fallback only needs uniqueness within the server's dedup
		// window, not unpredictability.
		return fmt.Sprintf("key-%d-%d", time.Now().UnixNano(), rand.Uint64())
	}
	return hex.EncodeToString(b[:])
}

// ErrResponseTooLarge reports a response body that exceeded the
// maxBodyBytes cap, instead of an opaque JSON decode error on the
// truncated body. The decode failure it would otherwise masquerade as
// is attached as context; test with errors.Is.
var ErrResponseTooLarge = errors.New("server: response exceeds client limit")

// NewClient returns a client for the service at base (e.g.
// "http://localhost:8080"). httpClient may be nil for
// http.DefaultClient.
func NewClient(base string, httpClient *http.Client) *Client {
	if httpClient == nil {
		httpClient = http.DefaultClient
	}
	return &Client{base: base, http: httpClient}
}

// seg escapes one path segment (choreography IDs, party names and
// evolution IDs are caller-chosen strings).
func seg(s string) string { return url.PathEscape(s) }

// APIError is a non-2xx response, carrying the /v2/ error envelope.
type APIError struct {
	Status  int
	Code    string
	Message string
	Details map[string]any
}

func (e *APIError) Error() string {
	if e.Code != "" {
		return fmt.Sprintf("server: HTTP %d %s: %s", e.Status, e.Code, e.Message)
	}
	return fmt.Sprintf("server: HTTP %d: %s", e.Status, e.Message)
}

// ErrIs reports whether err is an APIError with the given /v2/ code
// (one of the Code* constants).
func ErrIs(err error, code string) bool {
	var apiErr *APIError
	return errors.As(err, &apiErr) && apiErr.Code == code
}

// do runs one request under the client's retry policy; see doKeyed.
func (c *Client) do(ctx context.Context, method, path string, ifMatch *uint64, in, out any) (version uint64, err error) {
	return c.doKeyed(ctx, method, path, ifMatch, "", in, out)
}

// doKeyed runs one logical request, retrying per the client's Retry
// policy when the call is idempotent: a safe method (GET/PUT/DELETE),
// or any method carrying an idempotency key — every retry re-sends the
// same key, so the server applies the mutation exactly once. A non-nil
// ifMatch sends the If-Match precondition (version 0 is a valid
// precondition — a freshly created choreography). The returned version
// carries the response ETag (0 when absent).
func (c *Client) doKeyed(ctx context.Context, method, path string, ifMatch *uint64, key string, in, out any) (version uint64, err error) {
	var data []byte
	if in != nil {
		if data, err = json.Marshal(in); err != nil {
			return 0, err
		}
	}
	idempotent := key != "" || method == http.MethodGet || method == http.MethodPut || method == http.MethodDelete
	attempts := c.retry.MaxAttempts
	if attempts < 1 {
		attempts = 1
	}
	var start time.Time
	if c.retry.MaxElapsed > 0 {
		start = time.Now()
	}
	for attempt := 1; ; attempt++ {
		version, err = c.roundTrip(ctx, method, path, ifMatch, key, data, in != nil, out)
		if err == nil || attempt >= attempts {
			return version, err
		}
		retryable, hint := retryDecision(err, idempotent)
		if !retryable {
			return version, err
		}
		delay := c.retry.backoff(attempt, hint)
		if c.retry.MaxElapsed > 0 && time.Since(start)+delay > c.retry.MaxElapsed {
			return version, err
		}
		timer := time.NewTimer(delay)
		select {
		case <-ctx.Done():
			timer.Stop()
			return version, ctx.Err()
		case <-timer.C:
		}
	}
}

// roundTrip runs one attempt. The response body is always drained and
// closed so keep-alive connections return to the pool, and reads are
// capped at maxBodyBytes.
func (c *Client) roundTrip(ctx context.Context, method, path string, ifMatch *uint64, key string, data []byte, hasBody bool, out any) (version uint64, err error) {
	var body io.Reader
	if hasBody {
		body = bytes.NewReader(data)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, body)
	if err != nil {
		return 0, err
	}
	if hasBody {
		req.Header.Set("Content-Type", "application/json")
	}
	if ifMatch != nil {
		req.Header.Set("If-Match", etagOf(*ifMatch))
	}
	if key != "" {
		req.Header.Set("Idempotency-Key", key)
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return 0, err
	}
	defer func() {
		// Drain whatever the decoder left so the connection is reusable,
		// but never more than the response cap.
		_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, maxBodyBytes))
		resp.Body.Close()
	}()
	// One extra byte past the cap distinguishes "body is exactly the
	// cap" from "body was truncated at the cap": only a decode that
	// consumed the sentinel byte can have been cut short.
	limited := &io.LimitedReader{R: resp.Body, N: maxBodyBytes + 1}
	if etag := strings.Trim(resp.Header.Get("ETag"), `"`); etag != "" {
		version, _ = strconv.ParseUint(etag, 10, 64)
	}
	if resp.StatusCode >= 300 {
		apiErr := &APIError{Status: resp.StatusCode, Message: resp.Status}
		var env ErrorEnvelope
		if derr := json.NewDecoder(limited).Decode(&env); derr == nil && env.Message != "" {
			apiErr.Code, apiErr.Message, apiErr.Details = env.Code, env.Message, env.Details
		}
		return version, apiErr
	}
	if out == nil {
		return version, nil
	}
	if derr := json.NewDecoder(limited).Decode(out); derr != nil {
		if limited.N <= 0 {
			return version, fmt.Errorf("%w (%d bytes): %v", ErrResponseTooLarge, maxBodyBytes, derr)
		}
		return version, derr
	}
	return version, nil
}

// Checkpoint compacts the server's journal online
// (POST /v2/admin/checkpoint): the store state is snapshotted and the
// write-ahead log truncated. It fails with CodeInvalidArgument
// against a server running on an in-memory store.
func (c *Client) Checkpoint(ctx context.Context) (*CheckpointResponse, error) {
	var out CheckpointResponse
	if _, err := c.do(ctx, "POST", "/v2/admin/checkpoint", nil, struct{}{}, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// ---- choreographies ----

// CreateChoreography creates an empty choreography; sync lists
// "party.op" synchronous operations.
func (c *Client) CreateChoreography(ctx context.Context, id string, sync []string) error {
	_, err := c.do(ctx, "POST", "/v2/choreographies", nil, CreateRequest{ID: id, Sync: sync}, nil)
	return err
}

// ChoreographiesPage fetches one page of choreography IDs; pageToken
// "" starts from the beginning, the returned token is "" on the last
// page.
func (c *Client) ChoreographiesPage(ctx context.Context, limit int, pageToken string) ([]string, string, error) {
	var out ListResponse
	path := "/v2/choreographies?" + pageValues(limit, pageToken)
	if _, err := c.do(ctx, "GET", path, nil, nil, &out); err != nil {
		return nil, "", err
	}
	return out.Choreographies, out.NextPageToken, nil
}

// Choreographies iterates the cursor until exhaustion and returns
// every stored choreography ID.
func (c *Client) Choreographies(ctx context.Context) ([]string, error) {
	var all []string
	token := ""
	for {
		page, next, err := c.ChoreographiesPage(ctx, 0, token)
		if err != nil {
			return nil, err
		}
		all = append(all, page...)
		if next == "" {
			return all, nil
		}
		token = next
	}
}

// Choreography fetches one choreography summary.
func (c *Client) Choreography(ctx context.Context, id string) (*ChoreographyInfo, error) {
	var out ChoreographyInfo
	if _, err := c.do(ctx, "GET", "/v2/choreographies/"+seg(id), nil, nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// ---- parties ----

// RegisterParty registers a private process (serialized to XML on the
// wire).
func (c *Client) RegisterParty(ctx context.Context, id string, p *bpel.Process) (*PartyInfo, error) {
	data, err := bpel.MarshalXML(p)
	if err != nil {
		return nil, err
	}
	return c.RegisterPartyXML(ctx, id, string(data))
}

// RegisterPartyXML registers a private process given as BPEL XML.
func (c *Client) RegisterPartyXML(ctx context.Context, id, xml string) (*PartyInfo, error) {
	var out PartyInfo
	_, err := c.do(ctx, "POST", "/v2/choreographies/"+seg(id)+"/parties", nil, PartyRequest{XML: xml}, &out)
	if err != nil {
		return nil, err
	}
	return &out, nil
}

// RegisterParties registers and/or updates several parties as one
// change transaction (one commit, one version bump). A non-nil
// ifMatch pins the batch to that snapshot version: the call fails
// with CodeStaleVersion when the choreography moved past it.
func (c *Client) RegisterParties(ctx context.Context, id string, procs []*bpel.Process, ifMatch *uint64) (*BatchPartiesResponse, error) {
	req := BatchPartiesRequest{Parties: make([]PartyRequest, 0, len(procs))}
	for _, p := range procs {
		data, err := bpel.MarshalXML(p)
		if err != nil {
			return nil, err
		}
		req.Parties = append(req.Parties, PartyRequest{XML: string(data)})
	}
	var out BatchPartiesResponse
	_, err := c.do(ctx, "POST", "/v2/choreographies/"+seg(id)+"/parties:batch", ifMatch, req, &out)
	if err != nil {
		return nil, err
	}
	return &out, nil
}

// Party fetches one party (including its private process XML).
func (c *Client) Party(ctx context.Context, id, party string) (*PartyInfo, error) {
	var out PartyInfo
	_, err := c.do(ctx, "GET", "/v2/choreographies/"+seg(id)+"/parties/"+seg(party), nil, nil, &out)
	if err != nil {
		return nil, err
	}
	return &out, nil
}

// UpdateParty replaces a party's private process outright. A non-nil
// ifMatch sends If-Match (CodeStaleVersion on a lost race).
func (c *Client) UpdateParty(ctx context.Context, id string, p *bpel.Process, ifMatch *uint64) (*PartyInfo, error) {
	data, err := bpel.MarshalXML(p)
	if err != nil {
		return nil, err
	}
	var out PartyInfo
	_, err = c.do(ctx, "PUT", "/v2/choreographies/"+seg(id)+"/parties/"+seg(p.Owner), ifMatch,
		PartyRequest{XML: string(data)}, &out)
	if err != nil {
		return nil, err
	}
	return &out, nil
}

// ---- consistency ----

// Check runs the pairwise consistency check.
func (c *Client) Check(ctx context.Context, id string) (*CheckResponse, error) {
	var out CheckResponse
	if _, err := c.do(ctx, "POST", "/v2/choreographies/"+seg(id)+"/check", nil, struct{}{}, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// CheckBatch checks several choreographies in one request; per-ID
// failures come back inside the results, not as a call error.
func (c *Client) CheckBatch(ctx context.Context, ids []string) ([]BatchCheckResult, error) {
	var out BatchCheckResponse
	if _, err := c.do(ctx, "POST", "/v2/check:batch", nil, BatchCheckRequest{IDs: ids}, &out); err != nil {
		return nil, err
	}
	return out.Results, nil
}

// ---- evolution ----

// Evolve submits a party's proposed new private process for analysis —
// the single-op convenience over EvolveOps (one whole-process
// replacement).
func (c *Client) Evolve(ctx context.Context, id string, p *bpel.Process) (*EvolveOpsResponse, error) {
	data, err := bpel.MarshalXML(p)
	if err != nil {
		return nil, err
	}
	return c.EvolveOps(ctx, id, p.Owner, []OpJSON{{Kind: "replaceProcess", XML: string(data)}})
}

// EvolveOps submits a multi-op change transaction for analysis: the
// ops are applied in order and the combined delta is classified once.
// The returned BaseVersion (from the response ETag) pins the analysis
// for CommitIfMatch. The request carries an auto-generated
// Idempotency-Key, so under an armed Retry policy a resubmission
// answers the already-minted analysis instead of a duplicate.
func (c *Client) EvolveOps(ctx context.Context, id, party string, ops []OpJSON) (*EvolveOpsResponse, error) {
	var out EvolveOpsResponse
	version, err := c.doKeyed(ctx, "POST", "/v2/choreographies/"+seg(id)+"/evolve", nil, newIdempotencyKey(),
		EvolveOpsRequest{Party: party, Ops: ops}, &out)
	if err != nil {
		return nil, err
	}
	out.BaseVersion = version
	return &out, nil
}

// Evolution re-fetches a pending evolution analysis.
func (c *Client) Evolution(ctx context.Context, evoID string) (*EvolveOpsResponse, error) {
	var out EvolveOpsResponse
	version, err := c.do(ctx, "GET", "/v2/evolutions/"+seg(evoID), nil, nil, &out)
	if err != nil {
		return nil, err
	}
	out.BaseVersion = version
	return &out, nil
}

// Commit publishes a pending evolution (CodeStaleVersion / HTTP 412
// when the choreography advanced past the analysis).
func (c *Client) Commit(ctx context.Context, evoID string) (*CommitResponse, error) {
	return c.commit(ctx, evoID, nil)
}

// CommitIfMatch publishes a pending evolution under an explicit
// If-Match precondition on the current snapshot version — typically
// the BaseVersion returned by EvolveOps. The header is always sent,
// version 0 included.
func (c *Client) CommitIfMatch(ctx context.Context, evoID string, baseVersion uint64) (*CommitResponse, error) {
	return c.commit(ctx, evoID, &baseVersion)
}

// commit posts the evolution with an auto-generated Idempotency-Key:
// the server journals (key → outcome) with the commit, so a retried
// commit — even one whose first response was lost on the wire —
// applies exactly once and answers the original version.
func (c *Client) commit(ctx context.Context, evoID string, ifMatch *uint64) (*CommitResponse, error) {
	var out CommitResponse
	_, err := c.doKeyed(ctx, "POST", "/v2/evolutions/"+seg(evoID)+"/commit", ifMatch, newIdempotencyKey(), struct{}{}, &out)
	if err != nil {
		return nil, err
	}
	return &out, nil
}

// Apply runs suggestions from a pending evolution on a partner; empty
// indices mean every executable suggestion. A partner that changed
// since the analysis answers CodeConflict / HTTP 409.
func (c *Client) Apply(ctx context.Context, evoID, partner string, suggestions []int) (*CommitResponse, error) {
	var out CommitResponse
	_, err := c.do(ctx, "POST", "/v2/evolutions/"+seg(evoID)+"/apply", nil,
		ApplyRequest{Partner: partner, Suggestions: suggestions}, &out)
	if err != nil {
		return nil, err
	}
	return &out, nil
}

// ---- instances & migration ----

// SampleInstances records n seeded random-walk instances of a party.
func (c *Client) SampleInstances(ctx context.Context, id, party string, seed int64, n, maxLen int) (int, error) {
	var out struct {
		Added int `json:"added"`
	}
	_, err := c.do(ctx, "POST", "/v2/choreographies/"+seg(id)+"/parties/"+seg(party)+"/instances", nil,
		InstancesRequest{Sample: &SampleJSON{Seed: seed, N: n, MaxLen: maxLen}}, &out)
	return out.Added, err
}

// AddInstances records explicit instance traces.
func (c *Client) AddInstances(ctx context.Context, id, party string, insts []InstanceJSON) (int, error) {
	var out struct {
		Added int `json:"added"`
	}
	_, err := c.do(ctx, "POST", "/v2/choreographies/"+seg(id)+"/parties/"+seg(party)+"/instances", nil,
		InstancesRequest{Instances: insts}, &out)
	return out.Added, err
}

// IngestEvents streams one batch of observed instance events
// (POST /v2/choreographies/{id}/instances:events). The batch is
// durably journaled and applied before the call returns. A full
// ingestion lane surfaces as an APIError with CodeResourceExhausted;
// resubmit the identical batch after the RetryAfter backoff.
func (c *Client) IngestEvents(ctx context.Context, id string, events []IngestEventJSON) (int, error) {
	var out IngestResponse
	_, err := c.do(ctx, "POST", "/v2/choreographies/"+seg(id)+"/instances:events", nil,
		IngestRequest{Events: events}, &out)
	if err != nil {
		return 0, err
	}
	return out.Ingested, nil
}

// RetryAfter extracts the server's backoff hint from a
// resource_exhausted (backpressure) API error. ok is false when err is
// no such error or carries no hint.
func RetryAfter(err error) (backoff time.Duration, ok bool) {
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Code != CodeResourceExhausted {
		return 0, false
	}
	secs, ok := apiErr.Details["retryAfter"].(float64)
	if !ok || secs < 0 {
		return 0, false
	}
	return time.Duration(secs * float64(time.Second)), true
}

// Migrate classifies a party's recorded instances; evoID may be empty
// (classify against the current schema) or name a pending evolution
// (what-if before committing).
func (c *Client) Migrate(ctx context.Context, id, party, evoID string) (*MigrateResponse, error) {
	var out MigrateResponse
	_, err := c.do(ctx, "POST", "/v2/choreographies/"+seg(id)+"/parties/"+seg(party)+"/migrate", nil,
		MigrateRequest{Evolution: evoID}, &out)
	if err != nil {
		return nil, err
	}
	return &out, nil
}

// ---- bulk migration ----

// StartMigration launches (or resumes) the bulk migration of a
// choreography's tracked instances to its current committed snapshot,
// sweeping with the given worker-pool size (0 picks the server
// default). The call is idempotent per (choreography, version) and
// returns immediately with the job's current state; poll with
// MigrationJob or block with WaitMigration.
func (c *Client) StartMigration(ctx context.Context, id string, workers int) (*MigrationJobJSON, error) {
	var out MigrationJobJSON
	_, err := c.do(ctx, "POST", "/v2/choreographies/"+seg(id)+"/migrations", nil,
		MigrationStartRequest{Workers: workers}, &out)
	if err != nil {
		return nil, err
	}
	return &out, nil
}

// MigrationJob fetches one job's progress plus one page of its
// stranded-instance report (limit 0 = server default page size,
// pageToken "" = from the start).
func (c *Client) MigrationJob(ctx context.Context, id, job string, limit int, pageToken string) (*MigrationJobJSON, error) {
	var out MigrationJobJSON
	path := "/v2/choreographies/" + seg(id) + "/migrations/" + seg(job) + "?" + pageValues(limit, pageToken)
	if _, err := c.do(ctx, "GET", path, nil, nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// MigrationJobs lists a choreography's migration jobs (without their
// stranded reports), iterating the cursor until exhaustion.
func (c *Client) MigrationJobs(ctx context.Context, id string) ([]MigrationJobJSON, error) {
	var all []MigrationJobJSON
	token := ""
	for {
		var out MigrationListResponse
		path := "/v2/choreographies/" + seg(id) + "/migrations?" + pageValues(0, token)
		if _, err := c.do(ctx, "GET", path, nil, nil, &out); err != nil {
			return nil, err
		}
		all = append(all, out.Jobs...)
		if out.NextPageToken == "" {
			return all, nil
		}
		token = out.NextPageToken
	}
}

// MigrationStranded iterates a job's full stranded-instance report.
func (c *Client) MigrationStranded(ctx context.Context, id, job string) ([]StrandedJSON, error) {
	var all []StrandedJSON
	token := ""
	for {
		page, err := c.MigrationJob(ctx, id, job, 0, token)
		if err != nil {
			return nil, err
		}
		all = append(all, page.Stranded...)
		if page.NextPageToken == "" {
			return all, nil
		}
		token = page.NextPageToken
	}
}

// CancelMigration stops a running sweep; committed shards keep their
// results and StartMigration resumes the rest.
func (c *Client) CancelMigration(ctx context.Context, id, job string) (*MigrationJobJSON, error) {
	var out MigrationJobJSON
	_, err := c.do(ctx, "DELETE", "/v2/choreographies/"+seg(id)+"/migrations/"+seg(job), nil, nil, &out)
	if err != nil {
		return nil, err
	}
	return &out, nil
}

// WaitMigration polls a job every poll interval (<= 0 means 100ms)
// until it leaves the running state or ctx is done, and returns its
// final progress (first stranded page included). Progress polls ask
// for a single stranded entry so waiting on a huge sweep does not
// drag the report along; the final fetch takes a full page.
func (c *Client) WaitMigration(ctx context.Context, id, job string, poll time.Duration) (*MigrationJobJSON, error) {
	if poll <= 0 {
		poll = 100 * time.Millisecond
	}
	t := time.NewTicker(poll)
	defer t.Stop()
	for {
		out, err := c.MigrationJob(ctx, id, job, 1, "")
		if err != nil {
			return nil, err
		}
		if out.Status != "running" {
			return c.MigrationJob(ctx, id, job, 0, "")
		}
		select {
		case <-ctx.Done():
			return out, ctx.Err()
		case <-t.C:
		}
	}
}

// ---- discovery ----

// Publish publishes a party's public process for discovery; a
// non-empty forParty publishes the bilateral view τ_forParty(party)
// instead — the behavior the service exposes to that prospective
// partner.
func (c *Client) Publish(ctx context.Context, name, choreography, party, forParty string) error {
	_, err := c.do(ctx, "POST", "/v2/discovery/publish", nil,
		PublishRequest{Name: name, Choreography: choreography, Party: party, For: forParty}, nil)
	return err
}

// MatchPage fetches one page of discovery matches.
func (c *Client) MatchPage(ctx context.Context, req MatchRequest) (*MatchResponse, error) {
	var out MatchResponse
	if _, err := c.do(ctx, "POST", "/v2/discovery/match", nil, req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Match queries discovery with a party's public process, iterating the
// cursor until exhaustion; matcher is "consistent" (default) or
// "overlap".
func (c *Client) Match(ctx context.Context, choreography, party, matcher string) ([]string, error) {
	req := MatchRequest{Choreography: choreography, Party: party, Matcher: matcher}
	var all []string
	for {
		page, err := c.MatchPage(ctx, req)
		if err != nil {
			return nil, err
		}
		all = append(all, page.Matches...)
		if page.NextPageToken == "" {
			return all, nil
		}
		req.PageToken = page.NextPageToken
	}
}

// ---- misc ----

// View fetches the bilateral view τ_forParty(of) rendered as text.
func (c *Client) View(ctx context.Context, id, of, forParty string) (string, error) {
	var out struct {
		View string `json:"view"`
	}
	_, err := c.do(ctx, "GET",
		"/v2/choreographies/"+seg(id)+"/parties/"+seg(of)+"/view?for="+url.QueryEscape(forParty), nil, nil, &out)
	return out.View, err
}

// Stats fetches server counters.
func (c *Client) Stats(ctx context.Context) (*StatsResponse, error) {
	var out StatsResponse
	if _, err := c.do(ctx, "GET", "/v2/stats", nil, nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

func pageValues(limit int, pageToken string) string {
	v := url.Values{}
	if limit > 0 {
		v.Set("limit", strconv.Itoa(limit))
	}
	if pageToken != "" {
		v.Set("page_token", pageToken)
	}
	return v.Encode()
}
