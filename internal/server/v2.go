package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"strings"
	"time"

	"repro/internal/bpel"
	"repro/internal/ingest"
	"repro/internal/label"
	"repro/internal/store"
)

// The /v2/ surface: batch-first endpoints, multi-op change
// transactions, snapshot versions in ETag/If-Match headers (412 on
// stale preconditions), cursor pagination, and the {code, message,
// details} error envelope.

// handler is a /v2/ route. It answers a reply or an error and never
// sees the ResponseWriter: its ServeHTTP is the one place a /v2/
// response is written, so every error leaves as the envelope.
type handler func(r *http.Request) (reply, error)

// reply is a handler's answer: the status and the JSON body, plus,
// when the body describes a snapshot, its version for the ETag.
type reply struct {
	status  int
	body    any
	version uint64
	etag    bool
}

// respond answers status with body.
func respond(status int, body any) (reply, error) {
	return reply{status: status, body: body}, nil
}

// respondAt answers status with a body that describes snapshot
// version.
func respondAt(status int, version uint64, body any) (reply, error) {
	return reply{status: status, body: body, version: version, etag: true}, nil
}

// ServeHTTP caps a request body at maxBodyBytes (decode answers more
// with 413), runs h, and writes its reply as JSON or its error as the
// envelope. A request without a body passes through unwrapped.
func (h handler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Body != http.NoBody {
		r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
	}
	rep, err := h(r)
	if err != nil {
		writeErrorV2(w, err)
		return
	}
	if rep.etag {
		w.Header().Set("ETag", etagOf(rep.version))
	}
	writeJSON(w, rep.status, rep.body)
}

// router is what routesV2 registers on: v2Mux when serving, and a
// recorder around it in the route sweeps, so that they sweep the real
// route table through the real adapter.
type router interface {
	HandleFunc(pattern string, h handler)
}

// v2Mux serves each registered handler through its ServeHTTP.
type v2Mux struct{ *http.ServeMux }

func (m v2Mux) HandleFunc(pattern string, h handler) { m.Handle(pattern, h) }

func (s *Server) routesV2(mux router) {
	mux.HandleFunc("GET /v2/stats", s.v2Stats)
	mux.HandleFunc("GET /v2/healthz", s.v2Healthz)
	mux.HandleFunc("GET /v2/readyz", s.v2Readyz)
	mux.HandleFunc("POST /v2/choreographies", s.v2Create)
	mux.HandleFunc("GET /v2/choreographies", s.v2List)
	mux.HandleFunc("GET /v2/choreographies/{id}", s.v2Get)
	mux.HandleFunc("DELETE /v2/choreographies/{id}", s.v2Delete)
	mux.HandleFunc("POST /v2/choreographies/{id}/parties", s.v2RegisterParty)
	mux.HandleFunc("POST /v2/choreographies/{id}/parties:batch", s.v2BatchParties)
	mux.HandleFunc("GET /v2/choreographies/{id}/parties/{party}", s.v2GetParty)
	mux.HandleFunc("PUT /v2/choreographies/{id}/parties/{party}", s.v2UpdateParty)
	mux.HandleFunc("GET /v2/choreographies/{id}/parties/{party}/view", s.v2View)
	mux.HandleFunc("POST /v2/choreographies/{id}/check", s.v2Check)
	mux.HandleFunc("POST /v2/check:batch", s.v2BatchCheck)
	mux.HandleFunc("POST /v2/choreographies/{id}/evolve", s.v2Evolve)
	mux.HandleFunc("GET /v2/evolutions/{evo}", s.v2GetEvolution)
	mux.HandleFunc("POST /v2/evolutions/{evo}/commit", s.v2Commit)
	mux.HandleFunc("POST /v2/evolutions/{evo}/apply", s.v2Apply)
	mux.HandleFunc("POST /v2/choreographies/{id}/parties/{party}/instances", s.v2Instances)
	mux.HandleFunc("POST /v2/choreographies/{id}/instances:events", s.v2IngestEvents)
	mux.HandleFunc("POST /v2/choreographies/{id}/parties/{party}/migrate", s.v2Migrate)
	mux.HandleFunc("POST /v2/choreographies/{id}/migrations", s.v2StartMigration)
	mux.HandleFunc("GET /v2/choreographies/{id}/migrations", s.v2ListMigrations)
	mux.HandleFunc("GET /v2/choreographies/{id}/migrations/{job}", s.v2GetMigration)
	mux.HandleFunc("DELETE /v2/choreographies/{id}/migrations/{job}", s.v2CancelMigration)
	mux.HandleFunc("POST /v2/discovery/publish", s.v2Publish)
	mux.HandleFunc("POST /v2/discovery/match", s.v2Match)
	mux.HandleFunc("GET /v2/discovery/services", s.v2Services)
	mux.HandleFunc("POST /v2/admin/checkpoint", s.v2Checkpoint)
}

// evolveResponseV2 renders an analysis in the v2 shape; the base
// version travels as the response ETag instead of a body field.
func evolveResponseV2(id string, evo *store.Evolution) EvolveOpsResponse {
	out := EvolveOpsResponse{
		Evolution:        id,
		Choreography:     evo.Choreography,
		Party:            evo.Party,
		Ops:              make([]string, 0, len(evo.Ops)),
		PublicChanged:    evo.PublicChanged,
		NeedsPropagation: evo.NeedsPropagation(),
		Impacts:          impactsJSON(evo),
		BaseVersion:      evo.BaseVersion,
	}
	for _, op := range evo.Ops {
		out.Ops = append(out.Ops, op.String())
	}
	return out
}

// ifMatchVersion parses the If-Match header into a nil-able expected
// snapshot version for the store, which enforces it under the commit
// lock (absent header or "*" → nil, unconditional).
func ifMatchVersion(r *http.Request) (*uint64, error) {
	want, ok, err := ifMatch(r)
	if err != nil || !ok {
		return nil, err
	}
	return &want, nil
}

// asStale rewrites a store version conflict into the /v2/ 412
// precondition failure; other errors pass through.
func asStale(err error) error {
	if errors.Is(err, store.ErrConflict) {
		return fmt.Errorf("%w: %v", errStale, err)
	}
	return err
}

func (s *Server) v2Stats(*http.Request) (reply, error) {
	return respond(http.StatusOK, s.stats())
}

// v2Healthz is the liveness probe: 200 whenever the process serves
// requests, degraded or not — a degraded store still answers reads and
// must not be restarted into a crash loop by an orchestrator.
func (s *Server) v2Healthz(*http.Request) (reply, error) {
	return respond(http.StatusOK, map[string]string{"status": "ok"})
}

// v2Readyz is the readiness probe: 503 {code: "unavailable"} once the
// store degraded to read-only, so traffic that mutates is drained away
// while reads keep flowing through clients that ignore readiness.
func (s *Server) v2Readyz(*http.Request) (reply, error) {
	if err := s.store.Degraded(); err != nil {
		// Degraded() reports the causal journal failure; wrap it so the
		// envelope classifies it as unavailable, not internal.
		return reply{}, fmt.Errorf("%w: %v", store.ErrDegraded, err)
	}
	return respond(http.StatusOK, map[string]string{"status": "ready"})
}

func (s *Server) v2Create(r *http.Request) (reply, error) {
	var req CreateRequest
	if err := decode(r, &req); err != nil {
		return reply{}, err
	}
	if req.ID == "" {
		return reply{}, badRequest("missing choreography id")
	}
	if err := s.store.Create(r.Context(), req.ID, req.Sync); err != nil {
		return reply{}, err
	}
	return respondAt(http.StatusCreated, 0, map[string]string{"id": req.ID})
}

func (s *Server) v2List(r *http.Request) (reply, error) {
	limit, token, err := pageQuery(r)
	if err != nil {
		return reply{}, err
	}
	ids, err := s.store.IDs(r.Context())
	if err != nil {
		return reply{}, err
	}
	sort.Strings(ids)
	page, next, err := paginate(ids, limit, token)
	if err != nil {
		return reply{}, err
	}
	return respond(http.StatusOK, ListResponse{Choreographies: page, NextPageToken: next})
}

func (s *Server) v2Get(r *http.Request) (reply, error) {
	info, err := s.choreographyInfo(r.Context(), r.PathValue("id"))
	if err != nil {
		return reply{}, err
	}
	return respondAt(http.StatusOK, info.Version, info)
}

func (s *Server) v2Delete(r *http.Request) (reply, error) {
	if err := s.store.Delete(r.Context(), r.PathValue("id")); err != nil {
		return reply{}, err
	}
	return respond(http.StatusOK, map[string]string{"status": "deleted"})
}

func (s *Server) v2RegisterParty(r *http.Request) (reply, error) {
	var req PartyRequest
	if err := decode(r, &req); err != nil {
		return reply{}, err
	}
	p, err := parseProcess(req.XML)
	if err != nil {
		return reply{}, err
	}
	snap, err := s.store.RegisterParty(r.Context(), r.PathValue("id"), p)
	if err != nil {
		return reply{}, err
	}
	ps, _ := snap.Party(p.Owner)
	info, err := partyInfo(ps, false)
	if err != nil {
		return reply{}, err
	}
	return respondAt(http.StatusCreated, snap.Version, info)
}

// v2BatchParties registers and/or updates several parties as one
// change transaction: one registry inference, one snapshot publish,
// one version bump.
func (s *Server) v2BatchParties(r *http.Request) (reply, error) {
	var req BatchPartiesRequest
	if err := decode(r, &req); err != nil {
		return reply{}, err
	}
	if len(req.Parties) == 0 {
		return reply{}, badRequest("empty party batch")
	}
	procs := make([]*bpel.Process, 0, len(req.Parties))
	for i, pr := range req.Parties {
		p, err := parseProcess(pr.XML)
		if err != nil {
			return reply{}, badRequest("parties[%d]: %v", i, err)
		}
		procs = append(procs, p)
	}
	ifVersion, err := ifMatchVersion(r)
	if err != nil {
		return reply{}, err
	}
	snap, err := s.store.PutParties(r.Context(), r.PathValue("id"), procs, ifVersion)
	if err != nil {
		return reply{}, asStale(err)
	}
	out := BatchPartiesResponse{Choreography: snap.ID, Version: snap.Version}
	for _, p := range procs {
		ps, _ := snap.Party(p.Owner)
		info, err := partyInfo(ps, false)
		if err != nil {
			return reply{}, err
		}
		out.Parties = append(out.Parties, info)
	}
	return respondAt(http.StatusOK, snap.Version, out)
}

func (s *Server) v2GetParty(r *http.Request) (reply, error) {
	snap, err := s.store.Snapshot(r.Context(), r.PathValue("id"))
	if err != nil {
		return reply{}, err
	}
	ps, ok := snap.Party(r.PathValue("party"))
	if !ok {
		return reply{}, fmt.Errorf("%w: party %q", store.ErrNotFound, r.PathValue("party"))
	}
	info, err := partyInfo(ps, true)
	if err != nil {
		return reply{}, err
	}
	return respondAt(http.StatusOK, snap.Version, info)
}

func (s *Server) v2UpdateParty(r *http.Request) (reply, error) {
	var req PartyRequest
	if err := decode(r, &req); err != nil {
		return reply{}, err
	}
	p, err := parseProcess(req.XML)
	if err != nil {
		return reply{}, err
	}
	if p.Owner != r.PathValue("party") {
		return reply{}, badRequest("process owner %q does not match party %q", p.Owner, r.PathValue("party"))
	}
	ifVersion, err := ifMatchVersion(r)
	if err != nil {
		return reply{}, err
	}
	snap, err := s.store.UpdateParty(r.Context(), r.PathValue("id"), p, ifVersion)
	if err != nil {
		return reply{}, asStale(err)
	}
	ps, _ := snap.Party(p.Owner)
	info, err := partyInfo(ps, false)
	if err != nil {
		return reply{}, err
	}
	return respondAt(http.StatusOK, snap.Version, info)
}

func (s *Server) v2View(r *http.Request) (reply, error) {
	forParty := r.URL.Query().Get("for")
	if forParty == "" {
		return reply{}, badRequest("missing ?for=party")
	}
	v, err := s.store.View(r.Context(), r.PathValue("id"), r.PathValue("party"), forParty)
	if err != nil {
		return reply{}, err
	}
	body := v.DebugString()
	if r.URL.Query().Get("format") == "dot" {
		body = v.DOT()
	}
	return respond(http.StatusOK, map[string]any{
		"of": r.PathValue("party"), "for": forParty,
		"states": v.NumStates(), "view": body,
	})
}

func (s *Server) v2Check(r *http.Request) (reply, error) {
	if err := noParams(r); err != nil {
		return reply{}, err
	}
	rep, err := s.store.Check(r.Context(), r.PathValue("id"))
	if err != nil {
		return reply{}, err
	}
	return respondAt(http.StatusOK, rep.Version, checkResponse(rep))
}

// v2BatchCheck checks several choreographies in one request; failures
// are reported per ID so one unknown choreography does not void the
// rest of the batch.
func (s *Server) v2BatchCheck(r *http.Request) (reply, error) {
	var req BatchCheckRequest
	if err := decode(r, &req); err != nil {
		return reply{}, err
	}
	if len(req.IDs) == 0 {
		return reply{}, badRequest("empty id batch")
	}
	out := BatchCheckResponse{Results: make([]BatchCheckResult, 0, len(req.IDs))}
	for _, id := range req.IDs {
		if err := r.Context().Err(); err != nil {
			return reply{}, err
		}
		res := BatchCheckResult{ID: id}
		rep, err := s.store.Check(r.Context(), id)
		if err != nil {
			_, env := envelope(err)
			res.Error = &env
		} else {
			res.Report = checkResponse(rep)
		}
		out.Results = append(out.Results, res)
	}
	return respond(http.StatusOK, out)
}

// v2Evolve analyzes a multi-op change transaction. The ops are applied
// in order to the party's private process and the combined delta is
// classified once; the base snapshot version is returned as the ETag.
// A retried request carrying the same Idempotency-Key answers the
// analysis already minted for it instead of registering a duplicate.
func (s *Server) v2Evolve(r *http.Request) (reply, error) {
	var req EvolveOpsRequest
	if err := decode(r, &req); err != nil {
		return reply{}, err
	}
	key := idempotencyKey(r)
	if key != "" {
		if id, evo, ok := s.evolutionByKey(key); ok {
			return respondAt(http.StatusOK, evo.BaseVersion, evolveResponseV2(id, evo))
		}
	}
	ops, err := decodeOps(req.Party, req.Ops)
	if err != nil {
		return reply{}, err
	}
	evo, err := s.store.Evolve(r.Context(), r.PathValue("id"), req.Party, ops...)
	if err != nil {
		return reply{}, err
	}
	return respondAt(http.StatusOK, evo.BaseVersion, evolveResponseV2(s.registerEvolution(evo, key), evo))
}

func (s *Server) v2GetEvolution(r *http.Request) (reply, error) {
	id := r.PathValue("evo")
	evo, err := s.evolution(id)
	if err != nil {
		return reply{}, err
	}
	return respondAt(http.StatusOK, evo.BaseVersion, evolveResponseV2(id, evo))
}

// v2Commit publishes a pending evolution. Staleness — an If-Match that
// no longer matches, or a choreography that advanced past the
// evolution's base version — answers 412 {code: "stale_version"}; the
// client re-runs evolve against the fresh snapshot.
func (s *Server) v2Commit(r *http.Request) (reply, error) {
	if err := noParams(r); err != nil {
		return reply{}, err
	}
	evo, err := s.evolution(r.PathValue("evo"))
	if err != nil {
		return reply{}, err
	}
	// An If-Match that disagrees with the evolution's pinned base is
	// stale by construction; matching ones defer to the commit lock's
	// own base-version check, so the precondition is race-free.
	ifVersion, err := ifMatchVersion(r)
	if err != nil {
		return reply{}, err
	}
	if ifVersion != nil && *ifVersion != evo.BaseVersion {
		return reply{}, staleVersion(*ifVersion, evo.BaseVersion)
	}
	// With an Idempotency-Key, the store journals (key → outcome) with
	// the commit itself: a retried commit with the same key answers the
	// original version instead of applying twice (or failing with a
	// spurious conflict).
	_, version, err := s.store.CommitEvolutionIdem(r.Context(), evo, idempotencyKey(r))
	if err != nil {
		return reply{}, asStale(err)
	}
	return respondAt(http.StatusOK, version, CommitResponse{Choreography: evo.Choreography, Version: version})
}

// idempotencyKey reads the request's Idempotency-Key header; empty
// means the mutation is not keyed and retries are the caller's risk.
func idempotencyKey(r *http.Request) string {
	return strings.TrimSpace(r.Header.Get("Idempotency-Key"))
}

// v2Apply runs suggestions on a partner. A partner that changed since
// the analysis answers 409 {code: "conflict"} — unlike commit
// staleness this is a race on the partner's own process, and the
// caller must re-evolve to get fresh suggestions.
func (s *Server) v2Apply(r *http.Request) (reply, error) {
	evo, err := s.evolution(r.PathValue("evo"))
	if err != nil {
		return reply{}, err
	}
	var req ApplyRequest
	if err := decode(r, &req); err != nil {
		return reply{}, err
	}
	snap, err := s.applyOps(r.Context(), evo, req)
	if err != nil {
		return reply{}, err
	}
	return respondAt(http.StatusOK, snap.Version, CommitResponse{Choreography: snap.ID, Version: snap.Version})
}

func (s *Server) v2Instances(r *http.Request) (reply, error) {
	var req InstancesRequest
	if err := decode(r, &req); err != nil {
		return reply{}, err
	}
	added, err := s.addInstances(r.Context(), r.PathValue("id"), r.PathValue("party"), req)
	if err != nil {
		return reply{}, err
	}
	return respond(http.StatusCreated, map[string]int{"added": added})
}

// maxIngestBatch bounds one ingest request. It stays below the
// store's per-lane queue capacity so a single maximal batch routed to
// one lane can always be admitted by an idle engine. Documented in
// docs/api.md — change both together.
const maxIngestBatch = 1024

// maxSampleN and maxSampleLen bound a sampled instances request
// ({"sample":{"n","maxLen"}}): a sample is journaled as one record,
// and these keep that record far below journal.MaxRecordBytes.
// Documented in docs/api.md — change both together.
const (
	maxSampleN   = 10000
	maxSampleLen = 100
)

// v2IngestEvents streams one batch of observed instance events into
// the choreography. The batch is durably journaled and applied before
// the response; a full ingestion lane answers 429
// {code: "resource_exhausted"} with a retryAfter hint in the details,
// and the client resubmits the identical batch after backing off.
func (s *Server) v2IngestEvents(r *http.Request) (reply, error) {
	var req IngestRequest
	if err := decode(r, &req); err != nil {
		return reply{}, err
	}
	if len(req.Events) == 0 {
		return reply{}, badRequest("empty event batch")
	}
	if len(req.Events) > maxIngestBatch {
		return reply{}, badRequest("batch of %d events exceeds the maximum of %d", len(req.Events), maxIngestBatch)
	}
	events := make([]ingest.Event, 0, len(req.Events))
	for i, ev := range req.Events {
		l, err := label.Parse(ev.Label)
		if err != nil {
			return reply{}, badRequest("events[%d]: %v", i, err)
		}
		events = append(events, ingest.Event{Party: ev.Party, Instance: ev.Instance, Label: l})
	}
	n, err := s.store.IngestEvents(r.Context(), r.PathValue("id"), events)
	if err != nil {
		return reply{}, err
	}
	return respond(http.StatusOK, IngestResponse{Ingested: n})
}

func (s *Server) v2Migrate(r *http.Request) (reply, error) {
	var req MigrateRequest
	if err := decode(r, &req); err != nil {
		return reply{}, err
	}
	rep, err := s.migrate(r.Context(), r.PathValue("id"), r.PathValue("party"), req.Evolution)
	if err != nil {
		return reply{}, err
	}
	return respond(http.StatusOK, rep)
}

// v2StartMigration launches (or resumes) the bulk migration of a
// choreography's tracked instances to its current committed snapshot.
// The job identity is (choreography, snapshot version), so POSTing the
// same migration twice is idempotent: a sweep already in flight is
// joined (202), a completed one answers its final report immediately
// (200) without re-sweeping.
func (s *Server) v2StartMigration(r *http.Request) (reply, error) {
	var req MigrationStartRequest
	if err := decode(r, &req); err != nil {
		return reply{}, err
	}
	workers := req.Workers
	if workers <= 0 {
		workers = defaultMigrationWorkers
	}
	job, err := s.store.StartMigration(r.Context(), r.PathValue("id"), workers)
	if err != nil {
		return reply{}, err
	}
	out := migrationJSON(job)
	status := http.StatusAccepted
	if out.Status != "running" {
		status = http.StatusOK
	}
	return respond(status, out)
}

func (s *Server) v2ListMigrations(r *http.Request) (reply, error) {
	limit, token, err := pageQuery(r)
	if err != nil {
		return reply{}, err
	}
	jobs, err := s.store.MigrationJobs(r.Context(), r.PathValue("id"))
	if err != nil {
		return reply{}, err
	}
	ids := make([]string, 0, len(jobs))
	byID := make(map[string]MigrationJobJSON, len(jobs))
	for _, job := range jobs {
		ids = append(ids, job.ID)
		byID[job.ID] = migrationJSON(job)
	}
	page, next, err := paginate(ids, limit, token)
	if err != nil {
		return reply{}, err
	}
	out := MigrationListResponse{Jobs: make([]MigrationJobJSON, 0, len(page)), NextPageToken: next}
	for _, id := range page {
		out.Jobs = append(out.Jobs, byID[id])
	}
	return respond(http.StatusOK, out)
}

// v2GetMigration reports a job's progress plus one cursor page of its
// stranded-instance report.
func (s *Server) v2GetMigration(r *http.Request) (reply, error) {
	limit, token, err := pageQuery(r)
	if err != nil {
		return reply{}, err
	}
	job, err := s.store.MigrationJob(r.Context(), r.PathValue("id"), r.PathValue("job"))
	if err != nil {
		return reply{}, err
	}
	out, err := migrationJSONPage(job, limit, token)
	if err != nil {
		return reply{}, err
	}
	return respond(http.StatusOK, out)
}

// v2CancelMigration stops a running sweep. Shards already committed
// keep their results; POSTing the migration again resumes the rest.
// The handler waits briefly for the runner to settle so the response
// normally shows the terminal state; a response still saying
// "running" means the workers are draining — poll the job.
//
// A cancel that reached the server takes effect even when the request
// context is already done (client gone, deadline blown): the intent
// was expressed, and dropping it would leak a sweep the caller
// believes stopped. The settle wait, on the other hand, strictly
// honors the request context — a dead request never sleeps out the
// settle window.
func (s *Server) v2CancelMigration(r *http.Request) (reply, error) {
	job, err := s.store.MigrationJob(context.WithoutCancel(r.Context()), r.PathValue("id"), r.PathValue("job"))
	if err != nil {
		return reply{}, err
	}
	job.Cancel()
	if r.Context().Err() != nil {
		// Nobody is waiting for the settled state; answer immediately.
		return respond(http.StatusOK, migrationView(job.Snapshot()))
	}
	settle, cancel := context.WithTimeout(r.Context(), cancelSettleTimeout)
	defer cancel()
	v, _ := job.Wait(settle)
	return respond(http.StatusOK, migrationView(v))
}

// v2Checkpoint compacts the store's journal online: the full state is
// serialized into the snapshot file and the write-ahead log is
// truncated (see docs/persistence.md). On an in-memory store it fails
// with invalid_argument.
func (s *Server) v2Checkpoint(r *http.Request) (reply, error) {
	if err := noParams(r); err != nil {
		return reply{}, err
	}
	info, err := s.store.Checkpoint(r.Context())
	if err != nil {
		return reply{}, err
	}
	return respond(http.StatusOK, CheckpointResponse{LSN: info.LSN, SnapshotBytes: info.Bytes})
}

// cancelSettleTimeout bounds how long a cancel waits for the sweep's
// workers to drain before answering with the still-running state.
const cancelSettleTimeout = 500 * time.Millisecond

func (s *Server) v2Publish(r *http.Request) (reply, error) {
	var req PublishRequest
	if err := decode(r, &req); err != nil {
		return reply{}, err
	}
	name, err := s.publish(r.Context(), req)
	if err != nil {
		return reply{}, err
	}
	return respond(http.StatusCreated, map[string]string{"name": name})
}

func (s *Server) v2Match(r *http.Request) (reply, error) {
	var req MatchRequest
	if err := decode(r, &req); err != nil {
		return reply{}, err
	}
	matcher, names, err := s.match(r.Context(), req)
	if err != nil {
		return reply{}, err
	}
	page, next, err := paginate(names, req.Limit, req.PageToken)
	if err != nil {
		return reply{}, err
	}
	out := MatchResponse{Matcher: matcher, Matches: []string{}, NextPageToken: next}
	out.Matches = append(out.Matches, page...)
	return respond(http.StatusOK, out)
}

func (s *Server) v2Services(r *http.Request) (reply, error) {
	limit, token, err := pageQuery(r)
	if err != nil {
		return reply{}, err
	}
	s.discMu.RLock()
	names := s.disc.Names()
	s.discMu.RUnlock()
	page, next, err := paginate(names, limit, token)
	if err != nil {
		return reply{}, err
	}
	return respond(http.StatusOK, ServicesResponse{Services: page, NextPageToken: next})
}
