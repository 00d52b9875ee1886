// Package server exposes the choreography store as a JSON HTTP
// service — choreod. It is the serving front end of the framework:
// clients register parties as BPEL XML, check pairwise consistency,
// submit change transactions for analysis (classification,
// propagation plans, adaptation suggestions), commit them, apply
// suggestions to partners, query instance migratability, and run
// consistency-based service discovery.
//
// The primary surface is /v2/ (all bodies JSON; XML process payloads
// travel inside JSON strings):
//
//	POST   /v2/choreographies                                 {id, sync[]}
//	GET    /v2/choreographies?limit=&page_token=
//	GET    /v2/choreographies/{id}                            (ETag)
//	DELETE /v2/choreographies/{id}
//	POST   /v2/choreographies/{id}/parties                    {xml}
//	POST   /v2/choreographies/{id}/parties:batch              {parties[]} [If-Match]
//	GET    /v2/choreographies/{id}/parties/{party}
//	PUT    /v2/choreographies/{id}/parties/{party}            {xml} [If-Match]
//	GET    /v2/choreographies/{id}/parties/{party}/view?for=P[&format=dot]
//	POST   /v2/choreographies/{id}/check                      (ETag)
//	POST   /v2/check:batch                                    {ids[]}
//	POST   /v2/choreographies/{id}/evolve                     {party, ops[]} (ETag = base version)
//	GET    /v2/evolutions/{evo}
//	POST   /v2/evolutions/{evo}/commit                        [If-Match] → 412 on stale
//	POST   /v2/evolutions/{evo}/apply                         {partner, suggestions[]} → 409 on race
//	POST   /v2/choreographies/{id}/parties/{party}/instances  {sample}|{instances}
//	POST   /v2/choreographies/{id}/instances:events           {events[]} → 429 + retryAfter on backpressure
//	POST   /v2/choreographies/{id}/parties/{party}/migrate    {evolution}
//	POST   /v2/choreographies/{id}/migrations                 {workers} → bulk sweep job
//	GET    /v2/choreographies/{id}/migrations                 ?limit=&page_token=
//	GET    /v2/choreographies/{id}/migrations/{job}           ?limit=&page_token= (stranded page)
//	DELETE /v2/choreographies/{id}/migrations/{job}           cancel (resumable)
//	POST   /v2/discovery/publish                              {name, choreography, party}
//	POST   /v2/discovery/match                                {choreography, party, matcher, limit, pageToken}
//	GET    /v2/discovery/services?limit=&page_token=
//	POST   /v2/admin/checkpoint                               compact the journal (durable stores)
//	GET    /v2/stats
//	GET    /v2/healthz                                        liveness (always 200 while serving)
//	GET    /v2/readyz                                         readiness (503 {code: "unavailable"} when degraded)
//	GET    /healthz
//
// Pagination is uniform: limit above the server-side maximum page
// size (1000) is clamped, limit omitted or 0 picks the default, and
// page_token continues where the previous page stopped.
//
// Optimistic concurrency travels in headers: responses describing a
// snapshot carry its version as a strong ETag, and writes accept
// If-Match, answering 412 {code: "stale_version"} when the caller's
// version is outdated. Errors are a uniform machine-readable envelope
// {code, message, details}; see the Code* constants for the mapping
// (not-found → 404, duplicates and apply races → 409, malformed input
// → 400, stale preconditions → 412, degraded read-only store → 503).
//
// Retried mutations are made safe by idempotency keys: evolve and
// commit accept an Idempotency-Key header, and a retried commit with
// the same key applies exactly once — the replay answers the original
// outcome (see docs/resilience.md).
package server

import (
	"context"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bpel"
	"repro/internal/change"
	"repro/internal/discovery"
	"repro/internal/instance"
	"repro/internal/label"
	"repro/internal/migrate"
	"repro/internal/store"
)

// Server is the choreod HTTP front end over a Store.
type Server struct {
	store *store.Store

	evoMu sync.RWMutex
	evos  map[string]*store.Evolution
	// evoOrder tracks insertion order so the pending set stays bounded
	// (maxPendingEvolutions): a long-running service would otherwise
	// accumulate every analysis ever made.
	evoOrder []string
	// evoByKey/evoKeys map Idempotency-Key ↔ evolution ID both ways so
	// a retried evolve answers the original analysis and eviction can
	// clean the key up with its evolution.
	evoByKey map[string]string
	evoKeys  map[string]string
	evoSeq   atomic.Uint64

	discMu sync.RWMutex
	disc   *discovery.Registry

	requests atomic.Uint64
}

// maxPendingEvolutions bounds the retained evolution analyses; the
// oldest are evicted first (a client holding a very old evolution ID
// gets 404 and re-runs evolve).
const maxPendingEvolutions = 1024

// New returns a server over st.
func New(st *store.Store) *Server {
	return &Server{
		store:    st,
		evos:     map[string]*store.Evolution{},
		evoByKey: map[string]string{},
		evoKeys:  map[string]string{},
		disc:     discovery.NewRegistry(),
	}
}

// Store returns the underlying store.
func (s *Server) Store() *store.Store { return s.store }

// Handler returns the routed HTTP handler serving /v2/ and /healthz.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealth)
	s.routesV2(v2Mux{mux})
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.requests.Add(1)
		mux.ServeHTTP(w, r)
	})
}

// HTTPServer returns an http.Server serving Handler on addr. Its
// timeouts stop a client that trickles its headers or body, or idles
// on a keep-alive connection, from holding the connection forever.
// There is no write timeout: an evolve on a large choreography
// computes before it writes, and bounding that is not the transport's
// job.
func (s *Server) HTTPServer(addr string) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           s.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       time.Minute,
		IdleTimeout:       2 * time.Minute,
	}
}

func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// ---- request logic behind the /v2/ handlers ----

func parseProcess(xml string) (*bpel.Process, error) {
	if xml == "" {
		return nil, badRequest("empty process XML")
	}
	p, err := bpel.UnmarshalXML([]byte(xml))
	if err != nil {
		return nil, badRequest("parsing process XML: %v", err)
	}
	return p, nil
}

func partyInfo(ps *store.PartyState, withXML bool) (PartyInfo, error) {
	info := PartyInfo{
		Name:        ps.Name,
		Version:     ps.Version,
		States:      ps.Public.NumStates(),
		Transitions: ps.Public.NumTransitions(),
	}
	if withXML {
		data, err := bpel.MarshalXML(ps.Private)
		if err != nil {
			return info, err
		}
		info.XML = string(data)
	}
	return info, nil
}

func checkResponse(rep *store.CheckReport) *CheckResponse {
	out := &CheckResponse{ID: rep.ID, Version: rep.Version, Consistent: rep.Consistent()}
	for _, p := range rep.Pairs {
		out.Pairs = append(out.Pairs, PairJSON{A: p.A, B: p.B, Consistent: p.Consistent, Cached: p.Cached})
	}
	return out
}

func impactsJSON(evo *store.Evolution) []ImpactJSON {
	var out []ImpactJSON
	for _, im := range evo.Impacts {
		ij := ImpactJSON{Partner: im.Partner, ViewChanged: im.ViewChanged}
		if im.ViewChanged {
			ij.Kind = im.Classification.Kind.String()
			ij.Scope = im.Classification.Scope.String()
		}
		for _, p := range im.Plans {
			pj := PlanJSON{
				Kind:                   p.Kind.String(),
				DiffStates:             p.Diff.NumStates(),
				NewPartnerPublicStates: p.NewPartnerPublic.NumStates(),
			}
			for _, h := range p.Hints {
				pj.Hints = append(pj.Hints, h.String())
			}
			for _, r := range p.Regions {
				pj.Regions = append(pj.Regions, r.String())
			}
			ij.Plans = append(ij.Plans, pj)
		}
		for i, sg := range im.Suggestions {
			sj := SuggestionJSON{Index: i, Description: sg.Description, Executable: sg.Op != nil}
			if sg.Op != nil {
				sj.Op = sg.Op.String()
			}
			ij.Suggestions = append(ij.Suggestions, sj)
		}
		out = append(out, ij)
	}
	return out
}

// registerEvolution stores an analysis under a fresh ID, evicting the
// oldest pending ones past the retention bound. A non-empty
// idempotency key is remembered so a retried evolve with the same key
// answers this analysis instead of minting a duplicate.
func (s *Server) registerEvolution(evo *store.Evolution, key string) string {
	id := fmt.Sprintf("evo-%d", s.evoSeq.Add(1))
	s.evoMu.Lock()
	s.evos[id] = evo
	s.evoOrder = append(s.evoOrder, id)
	if key != "" {
		s.evoByKey[key] = id
		s.evoKeys[id] = key
	}
	for len(s.evoOrder) > maxPendingEvolutions {
		old := s.evoOrder[0]
		delete(s.evos, old)
		if k, ok := s.evoKeys[old]; ok {
			delete(s.evoKeys, old)
			delete(s.evoByKey, k)
		}
		s.evoOrder = s.evoOrder[1:]
	}
	s.evoMu.Unlock()
	return id
}

// evolutionByKey answers a previously registered analysis for an
// idempotency key, if it is still retained.
func (s *Server) evolutionByKey(key string) (string, *store.Evolution, bool) {
	s.evoMu.RLock()
	defer s.evoMu.RUnlock()
	id, ok := s.evoByKey[key]
	if !ok {
		return "", nil, false
	}
	evo, ok := s.evos[id]
	return id, evo, ok
}

func (s *Server) evolution(id string) (*store.Evolution, error) {
	s.evoMu.RLock()
	evo, ok := s.evos[id]
	s.evoMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: evolution %q", store.ErrNotFound, id)
	}
	return evo, nil
}

func (s *Server) choreographyInfo(ctx context.Context, id string) (*ChoreographyInfo, error) {
	snap, err := s.store.Snapshot(ctx, id)
	if err != nil {
		return nil, err
	}
	info := &ChoreographyInfo{ID: snap.ID, Version: snap.Version}
	for _, name := range snap.Parties() {
		ps, _ := snap.Party(name)
		pi, err := partyInfo(ps, false)
		if err != nil {
			return nil, err
		}
		info.Parties = append(info.Parties, pi)
	}
	return info, nil
}

// applyOps resolves an apply request against the pending evolution and
// runs it (steps 4–5 of Secs. 5.2/5.3). The suggestion paths are only
// valid against the partner version the evolution was analyzed on; a
// changed partner answers with a version conflict.
func (s *Server) applyOps(ctx context.Context, evo *store.Evolution, req ApplyRequest) (*store.Snapshot, error) {
	impact, ok := evo.Impact(req.Partner)
	if !ok {
		return nil, badRequest("evolution has no impact on partner %q", req.Partner)
	}
	var ops []change.Operation
	if len(req.Suggestions) == 0 {
		for _, sg := range impact.Suggestions {
			if sg.Op != nil {
				ops = append(ops, sg.Op)
			}
		}
	} else {
		for _, idx := range req.Suggestions {
			if idx < 0 || idx >= len(impact.Suggestions) {
				return nil, badRequest("suggestion index %d out of range", idx)
			}
			sg := impact.Suggestions[idx]
			if sg.Op == nil {
				return nil, badRequest("suggestion %d is manual: %s", idx, sg.Description)
			}
			ops = append(ops, sg.Op)
		}
	}
	if len(ops) == 0 {
		return nil, badRequest("no executable suggestions for partner %q", req.Partner)
	}
	return s.store.ApplyOps(ctx, evo.Choreography, req.Partner, ops, evo.PartnerVersions[req.Partner])
}

// addInstances records explicit and/or sampled instances; it returns
// the number recorded. The explicit ones go first, so a request they
// make invalid records no sample either.
func (s *Server) addInstances(ctx context.Context, id, party string, req InstancesRequest) (int, error) {
	if sm := req.Sample; sm != nil {
		if sm.N > maxSampleN {
			return 0, badRequest("sample of %d instances exceeds the maximum of %d", sm.N, maxSampleN)
		}
		if sm.MaxLen > maxSampleLen {
			return 0, badRequest("sample maxLen %d exceeds the maximum of %d", sm.MaxLen, maxSampleLen)
		}
	}
	added := 0
	if len(req.Instances) > 0 {
		var insts []instance.Instance
		for _, ij := range req.Instances {
			var trace []label.Label
			for _, t := range ij.Trace {
				l, err := label.Parse(t)
				if err != nil {
					return 0, badRequest("instance %q: %v", ij.ID, err)
				}
				trace = append(trace, l)
			}
			insts = append(insts, instance.Instance{ID: ij.ID, Trace: trace})
		}
		if err := s.store.AddInstances(ctx, id, party, insts); err != nil {
			return 0, err
		}
		added += len(insts)
	}
	if req.Sample != nil {
		n := req.Sample.N
		if n <= 0 {
			n = 100
		}
		maxLen := req.Sample.MaxLen
		if maxLen <= 0 {
			maxLen = 20
		}
		insts, err := s.store.SampleInstances(ctx, id, party, req.Sample.Seed, n, maxLen)
		if err != nil {
			return 0, err
		}
		added += len(insts)
	}
	if added == 0 {
		return 0, badRequest("nothing to add: provide instances or sample")
	}
	return added, nil
}

// defaultMigrationWorkers is the sweep fan-out when the start request
// does not pick one.
const defaultMigrationWorkers = 4

// migrationJSON renders a job's observable state (without the
// stranded report — migrationJSONPage adds one page of it).
func migrationJSON(job *migrate.Job) MigrationJobJSON {
	return migrationView(job.Snapshot())
}

func migrationView(v migrate.View) MigrationJobJSON {
	return MigrationJobJSON{
		Job:           v.ID,
		Choreography:  v.Choreography,
		TargetVersion: v.TargetVersion,
		Status:        v.Status.String(),
		Shards:        v.Shards,
		ShardsDone:    v.ShardsDone,
		Total:         v.Total,
		Migratable:    v.Migratable,
		NonReplayable: v.NonReplayable,
		Unviable:      v.Unviable,
		Error:         v.Err,
	}
}

// strandedKey is the composite cursor key of one stranded entry; NUL
// keeps the sort order identical to (party, id) and cannot appear in
// either component.
func strandedKey(st migrate.Stranded) string { return st.Party + "\x00" + st.ID }

// migrationJSONPage renders a job with one cursor page of its
// stranded-instance report. Counters and report come from one lock
// acquisition (Job.Report), so they are mutually consistent even
// mid-sweep; the report is kept sorted by the job, so a page is a
// binary search plus a bounded slice — polling a huge sweep stays
// cheap.
func migrationJSONPage(job *migrate.Job, limit int, pageToken string) (MigrationJobJSON, error) {
	v, stranded := job.Report()
	out := migrationView(v)
	cursor, err := decodePageToken(pageToken)
	if err != nil {
		return out, err
	}
	if limit <= 0 {
		limit = defaultPageLimit
	}
	if limit > maxPageLimit {
		limit = maxPageLimit
	}
	start := 0
	if cursor != "" {
		start = sort.Search(len(stranded), func(i int) bool { return strandedKey(stranded[i]) > cursor })
	}
	end := start + limit
	if end > len(stranded) {
		end = len(stranded)
	}
	for _, st := range stranded[start:end] {
		out.Stranded = append(out.Stranded, StrandedJSON{Party: st.Party, ID: st.ID, Status: st.Status.String()})
	}
	if end < len(stranded) {
		out.NextPageToken = encodePageToken(strandedKey(stranded[end-1]))
	}
	return out, nil
}

func (s *Server) migrate(ctx context.Context, id, party, evoID string) (*MigrateResponse, error) {
	var rep *instance.Report
	var err error
	if evoID != "" {
		evo, eerr := s.evolution(evoID)
		if eerr != nil {
			return nil, eerr
		}
		if evo.Choreography != id || evo.Party != party {
			return nil, badRequest("evolution %q does not target %s/%s", evoID, id, party)
		}
		rep, err = s.store.Migrate(ctx, id, party, evo.NewPublic)
	} else {
		rep, err = s.store.Migrate(ctx, id, party, nil)
	}
	if err != nil {
		return nil, err
	}
	return &MigrateResponse{
		Total:         rep.Total,
		Migratable:    rep.Migratable,
		NonReplayable: rep.NonReplayable,
		Unviable:      rep.Unviable,
		Blocked:       rep.Blocked,
	}, nil
}

func (s *Server) publish(ctx context.Context, req PublishRequest) (string, error) {
	snap, err := s.store.Snapshot(ctx, req.Choreography)
	if err != nil {
		return "", err
	}
	ps, ok := snap.Party(req.Party)
	if !ok {
		return "", fmt.Errorf("%w: party %q", store.ErrNotFound, req.Party)
	}
	pub := ps.Public
	if req.For != "" {
		if pub, err = s.store.View(ctx, req.Choreography, req.Party, req.For); err != nil {
			return "", err
		}
	}
	name := req.Name
	if name == "" {
		name = req.Choreography + "/" + req.Party
	}
	s.discMu.Lock()
	err = s.disc.Publish(name, pub)
	s.discMu.Unlock()
	if err != nil {
		return "", fmt.Errorf("%w: %v", store.ErrExists, err)
	}
	return name, nil
}

// match runs discovery matchmaking and returns the sorted match names.
func (s *Server) match(ctx context.Context, req MatchRequest) (matcher string, names []string, err error) {
	snap, err := s.store.Snapshot(ctx, req.Choreography)
	if err != nil {
		return "", nil, err
	}
	ps, ok := snap.Party(req.Party)
	if !ok {
		return "", nil, fmt.Errorf("%w: party %q", store.ErrNotFound, req.Party)
	}
	matcher = req.Matcher
	if matcher == "" {
		matcher = "consistent"
	}
	var matches []discovery.Match
	s.discMu.RLock()
	switch matcher {
	case "consistent":
		matches, err = s.disc.MatchConsistent(ps.Public)
	case "overlap":
		matches = s.disc.MatchOverlap(ps.Public)
	default:
		err = badRequest("unknown matcher %q", matcher)
	}
	s.discMu.RUnlock()
	if err != nil {
		return "", nil, err
	}
	names = make([]string, 0, len(matches))
	for _, m := range matches {
		names = append(names, m.Name)
	}
	sort.Strings(names)
	return matcher, names, nil
}

func (s *Server) stats() StatsResponse {
	st := s.store.Stats()
	s.evoMu.RLock()
	pending := len(s.evos)
	s.evoMu.RUnlock()
	return StatsResponse{
		Choreographies:          st.Choreographies,
		ConsistencyHits:         st.ConsistencyHits,
		ConsistencyMisses:       st.ConsistencyMisses,
		ViewHits:                st.ViewHits,
		ViewMisses:              st.ViewMisses,
		Commits:                 st.Commits,
		Conflicts:               st.Conflicts,
		Evolutions:              st.Evolutions,
		PendingEvolutions:       pending,
		Requests:                s.requests.Load(),
		TrackedInstances:        st.TrackedInstances,
		InstancesByChoreography: st.InstancesByChoreography,
		EventsIngested:          st.EventsIngested,
		IngestRejected:          st.IngestRejected,
		OnlineMigrations:        st.OnlineMigrations,
		IngestLaneRejects:       st.IngestLaneRejects,
		Degraded:                st.Degraded,
		LastError:               st.LastError,
	}
}
