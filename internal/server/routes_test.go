package server

import (
	"context"
	"encoding/json"
	"errors"
	"maps"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/bpel"
	"repro/internal/paperrepro"
	"repro/internal/store"
)

// routeRecorder registers routes on the serving mux type and keeps
// their patterns in order, so the sweeps below cover the table
// routesV2 serves, through the adapter it serves them with.
type routeRecorder struct {
	v2Mux
	patterns []string
}

func (r *routeRecorder) HandleFunc(pattern string, h handler) {
	r.patterns = append(r.patterns, pattern)
	r.v2Mux.HandleFunc(pattern, h)
}

// sweepCase is a well-formed request to one route; values fill the
// pattern's wildcards. exempt marks a route that never hands the
// request context to the store.
type sweepCase struct {
	values      map[string]string
	query, body string
	exempt      bool
}

// sweep is a choreod over a journaled store that holds one of
// everything a route can address, with a case per route.
type sweep struct {
	st     *store.Store
	routes *routeRecorder
	cases  map[string]sweepCase
}

// newSweep fails t when a route has no case or a case no route, so a
// new route cannot skip the sweeps.
func newSweep(t *testing.T) *sweep {
	t.Helper()
	st, err := store.Open(store.WithJournal(t.TempDir()), store.WithShards(4))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	srv := New(st)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	c := NewClient(ts.URL, ts.Client())
	id := paperSetup(t, c)
	if err := c.CreateChoreography(ctx, "spare", nil); err != nil {
		t.Fatal(err)
	}
	if _, err := c.SampleInstances(ctx, id, paperrepro.Buyer, 1, 5, 8); err != nil {
		t.Fatal(err)
	}
	job, err := c.StartMigration(ctx, id, 2)
	if err != nil {
		t.Fatal(err)
	}
	newAcc := apply(t, paperrepro.AccountingProcess(), paperrepro.CancelChange())
	evo, err := c.Evolve(ctx, id, newAcc)
	if err != nil {
		t.Fatal(err)
	}
	xmlOf := func(p *bpel.Process) string {
		data, err := bpel.MarshalXML(p)
		if err != nil {
			t.Fatal(err)
		}
		return string(data)
	}
	js := func(v any) string {
		data, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return string(data)
	}
	buyer := PartyRequest{XML: xmlOf(paperrepro.BuyerProcess())}
	chor := map[string]string{"id": id}
	party := map[string]string{"id": id, "party": paperrepro.Buyer}
	spare := map[string]string{"id": "spare"}
	evoID := map[string]string{"evo": evo.Evolution}
	jobID := map[string]string{"id": id, "job": job.Job}

	sw := &sweep{st: st, routes: &routeRecorder{v2Mux: v2Mux{http.NewServeMux()}}, cases: map[string]sweepCase{
		"GET /v2/stats":                                    {exempt: true},
		"GET /v2/healthz":                                  {exempt: true},
		"GET /v2/readyz":                                   {exempt: true},
		"POST /v2/choreographies":                          {body: js(CreateRequest{ID: "fresh"})},
		"GET /v2/choreographies":                           {},
		"GET /v2/choreographies/{id}":                      {values: chor},
		"DELETE /v2/choreographies/{id}":                   {values: spare},
		"POST /v2/choreographies/{id}/parties":             {values: spare, body: js(buyer)},
		"POST /v2/choreographies/{id}/parties:batch":       {values: chor, body: js(BatchPartiesRequest{Parties: []PartyRequest{buyer}})},
		"GET /v2/choreographies/{id}/parties/{party}":      {values: party},
		"PUT /v2/choreographies/{id}/parties/{party}":      {values: party, body: js(buyer)},
		"GET /v2/choreographies/{id}/parties/{party}/view": {values: party, query: "for=" + paperrepro.Accounting},
		"POST /v2/choreographies/{id}/check":               {values: chor},
		"POST /v2/check:batch":                             {body: js(BatchCheckRequest{IDs: []string{id}})},
		"POST /v2/choreographies/{id}/evolve": {values: chor, body: js(EvolveOpsRequest{
			Party: paperrepro.Accounting, Ops: []OpJSON{{Kind: "replaceProcess", XML: xmlOf(newAcc)}}})},
		"GET /v2/evolutions/{evo}":         {values: evoID, exempt: true},
		"POST /v2/evolutions/{evo}/commit": {values: evoID},
		"POST /v2/evolutions/{evo}/apply":  {values: evoID, body: js(ApplyRequest{Partner: paperrepro.Buyer})},
		"POST /v2/choreographies/{id}/parties/{party}/instances": {values: party,
			body: js(InstancesRequest{Sample: &SampleJSON{Seed: 2, N: 2, MaxLen: 8}})},
		"POST /v2/choreographies/{id}/instances:events": {values: chor, body: js(IngestRequest{
			Events: []IngestEventJSON{{Party: paperrepro.Buyer, Instance: "c1", Label: "B#A#orderOp"}}})},
		"POST /v2/choreographies/{id}/parties/{party}/migrate": {values: party, body: "{}"},
		"POST /v2/choreographies/{id}/migrations":              {values: chor, body: "{}"},
		"GET /v2/choreographies/{id}/migrations":               {values: chor},
		"GET /v2/choreographies/{id}/migrations/{job}":         {values: jobID},
		"DELETE /v2/choreographies/{id}/migrations/{job}":      {values: jobID, exempt: true},
		"POST /v2/discovery/publish":                           {body: js(PublishRequest{Choreography: id, Party: paperrepro.Buyer})},
		"POST /v2/discovery/match":                             {body: js(MatchRequest{Choreography: id, Party: paperrepro.Accounting})},
		"GET /v2/discovery/services":                           {exempt: true},
		"POST /v2/admin/checkpoint":                            {},
	}}
	srv.routesV2(sw.routes)
	for _, p := range sw.routes.patterns {
		if _, ok := sw.cases[p]; !ok {
			t.Errorf("route %s has no sweep case", p)
		}
	}
	for p := range sw.cases {
		if !slices.Contains(sw.routes.patterns, p) {
			t.Errorf("sweep case %s matches no route", p)
		}
	}
	return sw
}

var wildcard = regexp.MustCompile(`\{\w+\}`)

// do sends c to pattern's route, its wildcards filled from c.values,
// and fails t when the request routes to another pattern.
func (sw *sweep) do(t *testing.T, reqCtx context.Context, pattern string, c sweepCase) *httptest.ResponseRecorder {
	t.Helper()
	method, path, _ := strings.Cut(pattern, " ")
	path = wildcard.ReplaceAllStringFunc(path, func(w string) string { return c.values[w[1:len(w)-1]] })
	req := httptest.NewRequestWithContext(reqCtx, method, path+"?"+c.query, strings.NewReader(c.body))
	if _, got := sw.routes.Handler(req); got != pattern {
		t.Fatalf("%s %s routes to %q, want %q", method, req.URL, got, pattern)
	}
	rec := httptest.NewRecorder()
	sw.routes.ServeHTTP(rec, req)
	return rec
}

// TestRoutesHonorCancellation sends every /v2/ route a well-formed
// request whose context is already cancelled. A route that hands the
// request context to the store must answer 503 cancelled; any other
// answer means the handler detached from the request and keeps
// working for a client that is gone. Exempt routes must still succeed.
// The store is journaled, so the checkpoint reaches its context.
func TestRoutesHonorCancellation(t *testing.T) {
	sw := newSweep(t)
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	for _, pattern := range sw.routes.patterns {
		c := sw.cases[pattern]
		rec := sw.do(t, cancelled, pattern, c)
		var env ErrorEnvelope
		_ = json.Unmarshal(rec.Body.Bytes(), &env)
		if c.exempt && rec.Code >= 300 {
			t.Errorf("%s: exempt route answered %d %s on a cancelled request", pattern, rec.Code, rec.Body)
		}
		if !c.exempt && (rec.Code != http.StatusServiceUnavailable || env.Code != CodeCancelled) {
			t.Errorf("%s: cancelled request answered %d %s, want 503 %s", pattern, rec.Code, rec.Body, CodeCancelled)
		}
	}
}

// TestRoutesErrorEnvelope sends every /v2/ route the requests likely
// to fail: unknown path IDs, a known choreography with an unknown
// party, a malformed body (POST, PUT) and a malformed page token
// (GET). Every error must be the JSON envelope, with the status the
// Code* comments in wire.go give its code, and every route but three
// must answer at least one error.
func TestRoutesErrorEnvelope(t *testing.T) {
	statuses := codeStatuses(t)
	sw := newSweep(t)
	ghost := map[string]string{"id": "ghost", "party": "ghost", "evo": "ghost", "job": "ghost"}
	neverFails := map[string]bool{"GET /v2/stats": true, "GET /v2/healthz": true, "GET /v2/readyz": true}
	for _, pattern := range sw.routes.patterns {
		c := sw.cases[pattern]
		unknownIDs := c
		unknownIDs.values = ghost
		variants := []sweepCase{unknownIDs}
		if _, ok := c.values["party"]; ok {
			unknownParty := c
			unknownParty.values = maps.Clone(c.values)
			unknownParty.values["party"] = "ghost"
			variants = append(variants, unknownParty)
		}
		malformed := c
		switch method, _, _ := strings.Cut(pattern, " "); method {
		case http.MethodPost, http.MethodPut:
			malformed.body = "{"
			variants = append(variants, malformed)
		case http.MethodGet:
			malformed.query += "&page_token=!"
			variants = append(variants, malformed)
		}
		failed := false
		for _, v := range variants {
			rec := sw.do(t, ctx, pattern, v)
			if rec.Code < 400 {
				continue
			}
			failed = true
			var env ErrorEnvelope
			err := json.Unmarshal(rec.Body.Bytes(), &env)
			if ct := rec.Header().Get("Content-Type"); ct != "application/json" || err != nil || env.Code == "" {
				t.Errorf("%s %v: %d %q (Content-Type %q) is not an error envelope", pattern, v.values, rec.Code, rec.Body, ct)
			} else if statuses[env.Code] != rec.Code {
				t.Errorf("%s %v: code %q with status %d, want %d", pattern, v.values, env.Code, rec.Code, statuses[env.Code])
			}
		}
		if !failed && !neverFails[pattern] {
			t.Errorf("%s: no request failed, want at least one error", pattern)
		}
	}
}

// TestRoutesRefuseTrailingData sends every POST and PUT route its
// sweep body (or {} when it has none) followed by a second JSON value.
// A body is one value, so each must answer 400 invalid_argument and
// apply nothing: both choreographies stay at their versions, create
// registers nothing, and the store's counters do not move.
func TestRoutesRefuseTrailingData(t *testing.T) {
	sw := newSweep(t)
	state := func() (uint64, uint64, store.Stats) {
		t.Helper()
		snap, err := sw.st.Snapshot(ctx, sw.cases["GET /v2/choreographies/{id}"].values["id"])
		if err != nil {
			t.Fatal(err)
		}
		spare, err := sw.st.Snapshot(ctx, "spare")
		if err != nil {
			t.Fatal(err)
		}
		return snap.Version, spare.Version, sw.st.Stats()
	}
	for _, pattern := range sw.routes.patterns {
		if method, _, _ := strings.Cut(pattern, " "); method != http.MethodPost && method != http.MethodPut {
			continue
		}
		c := sw.cases[pattern]
		if c.body == "" {
			c.body = "{}"
		}
		c.body += "{}"
		v, spare, stats := state()
		rec := sw.do(t, ctx, pattern, c)
		var env ErrorEnvelope
		_ = json.Unmarshal(rec.Body.Bytes(), &env)
		if rec.Code != http.StatusBadRequest || env.Code != CodeInvalidArgument {
			t.Errorf("%s with a trailing value: %d %s, want 400 %s", pattern, rec.Code, rec.Body, CodeInvalidArgument)
		}
		if v2, spare2, stats2 := state(); v2 != v || spare2 != spare || !reflect.DeepEqual(stats2, stats) {
			t.Errorf("%s with a trailing value applied it: versions %d, %d → %d, %d; stats %+v → %+v", pattern, v, spare, v2, spare2, stats, stats2)
		}
	}
	if _, err := sw.st.Snapshot(ctx, "fresh"); !errors.Is(err, store.ErrNotFound) {
		t.Errorf("create with a trailing value registered the choreography: %v", err)
	}
}

// codeStatuses reads each error code's HTTP status from the comment on
// its Code* constant in wire.go.
func codeStatuses(t *testing.T) map[string]int {
	t.Helper()
	src, err := os.ReadFile("wire.go")
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]int{}
	for _, m := range regexp.MustCompile(`(?m)^\s*Code\w+\s*=\s*"(\w+)"(?:\s*// (\d{3}))?`).FindAllStringSubmatch(string(src), -1) {
		if out[m[1]], err = strconv.Atoi(m[2]); err != nil {
			t.Fatalf("code %q has no status comment in wire.go", m[1])
		}
	}
	if len(out) == 0 {
		t.Fatal("no Code* constants in wire.go")
	}
	return out
}
