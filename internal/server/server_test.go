package server

import (
	"context"
	"errors"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/bpel"
	"repro/internal/change"
	"repro/internal/paperrepro"
	"repro/internal/store"
)

// ctx is the background context shared by the package tests; the
// cancellation and timeout tests build their own.
var ctx = context.Background()

func testClient(t *testing.T) (*Client, *Server) {
	t.Helper()
	srv := New(store.New(store.WithShards(4)))
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return NewClient(ts.URL, ts.Client()), srv
}

// paperSetup registers the procurement scenario through the API.
func paperSetup(t *testing.T, c *Client) string {
	t.Helper()
	const id = "procurement"
	if err := c.CreateChoreography(ctx, id, []string{"L.getStatusLOp"}); err != nil {
		t.Fatal(err)
	}
	for _, p := range []*bpel.Process{
		paperrepro.BuyerProcess(), paperrepro.AccountingProcess(), paperrepro.LogisticsProcess(),
	} {
		if _, err := c.RegisterParty(ctx, id, p); err != nil {
			t.Fatalf("RegisterParty(%s): %v", p.Owner, err)
		}
	}
	return id
}

// apply is a test helper evolving a fixture process locally so the
// client can submit the proposed new process XML.
func apply(t *testing.T, p *bpel.Process, op change.Operation) *bpel.Process {
	t.Helper()
	out, err := op.Apply(p)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestProcurementScenarioEndToEnd drives the paper's full evaluation
// through the HTTP API: register the three parties, check, evolve the
// accounting process with the Sec. 5.2 cancel change, fetch the
// propagation plan and suggestions, commit, let the buyer apply the
// suggested adaptation, then run the Sec. 5.3 tracking-limit change
// with an instance-migration what-if.
func TestProcurementScenarioEndToEnd(t *testing.T) {
	c, _ := testClient(t)
	id := paperSetup(t, c)

	// Initial summary and consistency.
	info, err := c.Choreography(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	if len(info.Parties) != 3 {
		t.Fatalf("parties = %d, want 3", len(info.Parties))
	}
	rep, err := c.Check(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Consistent || len(rep.Pairs) != 2 {
		t.Fatalf("initial check = %+v", rep)
	}
	rep, err = c.Check(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range rep.Pairs {
		if !p.Cached {
			t.Fatalf("repeated check not served from cache: %+v", p)
		}
	}

	// Sec. 5.2: the cancel change on the accounting department.
	newAcc := apply(t, paperrepro.AccountingProcess(), paperrepro.CancelChange())
	evo, err := c.Evolve(ctx, id, newAcc)
	if err != nil {
		t.Fatal(err)
	}
	if !evo.PublicChanged || !evo.NeedsPropagation {
		t.Fatalf("cancel evolve = %+v", evo)
	}
	var buyer *ImpactJSON
	for i := range evo.Impacts {
		if evo.Impacts[i].Partner == paperrepro.Buyer {
			buyer = &evo.Impacts[i]
		}
	}
	if buyer == nil {
		t.Fatal("no buyer impact")
	}
	if buyer.Kind != "additive" || buyer.Scope != "variant" {
		t.Fatalf("buyer classification = %s/%s", buyer.Kind, buyer.Scope)
	}
	if len(buyer.Plans) != 1 {
		t.Fatalf("buyer plans = %d", len(buyer.Plans))
	}
	plan := buyer.Plans[0]
	if plan.Kind != "additive" || len(plan.Hints) != 1 || len(plan.Regions) != 1 {
		t.Fatalf("plan = %+v", plan)
	}
	if !strings.Contains(plan.Hints[0], "A#B#cancelOp") {
		t.Fatalf("hint = %q, want the cancel message", plan.Hints[0])
	}
	if !strings.Contains(plan.Regions[0], "Sequence:buyer process") {
		t.Fatalf("region = %q, want the buyer process block", plan.Regions[0])
	}
	var executable []int
	for _, sg := range buyer.Suggestions {
		if sg.Executable {
			executable = append(executable, sg.Index)
		}
	}
	if len(executable) != 1 {
		t.Fatalf("executable suggestions = %v (%+v)", executable, buyer.Suggestions)
	}

	// The pending evolution is re-fetchable.
	again, err := c.Evolution(ctx, evo.Evolution)
	if err != nil {
		t.Fatal(err)
	}
	if again.BaseVersion != evo.BaseVersion || len(again.Impacts) != len(evo.Impacts) {
		t.Fatalf("re-fetched evolution differs: %+v vs %+v", again, evo)
	}

	// Commit the originator; the choreography is now inconsistent.
	commit, err := c.Commit(ctx, evo.Evolution)
	if err != nil {
		t.Fatal(err)
	}
	if commit.Version != evo.BaseVersion+1 {
		t.Fatalf("committed version = %d", commit.Version)
	}
	rep, err = c.Check(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Consistent {
		t.Fatal("choreography still consistent before the buyer adapts")
	}

	// The buyer applies the suggested widening; consistency returns.
	if _, err := c.Apply(ctx, evo.Evolution, paperrepro.Buyer, executable); err != nil {
		t.Fatal(err)
	}
	rep, err = c.Check(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Consistent {
		t.Fatalf("choreography inconsistent after propagation: %+v", rep.Pairs)
	}

	// Sec. 5.3: the tracking-limit change, driven against a second
	// pristine choreography (the cancel change above restructured the
	// accounting tail the tracking loop lives in), with a migration
	// what-if for its running instances.
	const id2 = "procurement-2"
	if err := c.CreateChoreography(ctx, id2, []string{"L.getStatusLOp"}); err != nil {
		t.Fatal(err)
	}
	for _, p := range []*bpel.Process{
		paperrepro.BuyerProcess(), paperrepro.AccountingProcess(), paperrepro.LogisticsProcess(),
	} {
		if _, err := c.RegisterParty(ctx, id2, p); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.SampleInstances(ctx, id2, paperrepro.Accounting, 7, 50, 12); err != nil {
		t.Fatal(err)
	}
	newAcc2 := apply(t, paperrepro.AccountingProcess(), paperrepro.TrackingLimitChange())
	evo2, err := c.Evolve(ctx, id2, newAcc2)
	if err != nil {
		t.Fatal(err)
	}
	if !evo2.PublicChanged {
		t.Fatal("tracking limit did not change the accounting public")
	}
	// Subtractive for the buyer: the unbounded tracking disappears.
	for _, im := range evo2.Impacts {
		if im.Partner == paperrepro.Buyer && im.ViewChanged {
			if !strings.Contains(im.Kind, "subtractive") {
				t.Fatalf("tracking-limit kind for buyer = %s", im.Kind)
			}
		}
	}
	mig, err := c.Migrate(ctx, id2, paperrepro.Accounting, evo2.Evolution)
	if err != nil {
		t.Fatal(err)
	}
	if mig.Total != 50 || mig.Migratable == 0 || mig.Migratable == mig.Total {
		t.Fatalf("migration what-if = %+v, want a split verdict over 50 instances", mig)
	}

	// Stats reflect the traffic.
	st, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Choreographies != 2 || st.Commits == 0 || st.ConsistencyHits == 0 || st.Requests == 0 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestDiscoveryEndpoints mirrors the paper's Sec. 6 matchmaking: the
// services publish the views they expose to a prospective buyer; a
// buyer querying with its public process finds exactly the accounting
// service.
func TestDiscoveryEndpoints(t *testing.T) {
	c, _ := testClient(t)
	id := paperSetup(t, c)
	for _, party := range []string{paperrepro.Accounting, paperrepro.Logistics} {
		if err := c.Publish(ctx, "svc-"+party, id, party, paperrepro.Buyer); err != nil {
			t.Fatal(err)
		}
	}
	matches, err := c.Match(ctx, id, paperrepro.Buyer, "consistent")
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) != 1 || matches[0] != "svc-A" {
		t.Fatalf("consistent matches = %v, want [svc-A]", matches)
	}
	// The overlap baseline over-approximates: it cannot return fewer
	// matches than the consistency matcher.
	overlap, err := c.Match(ctx, id, paperrepro.Buyer, "overlap")
	if err != nil {
		t.Fatal(err)
	}
	if len(overlap) < len(matches) {
		t.Fatalf("overlap (%v) returned fewer matches than consistent (%v)", overlap, matches)
	}
	// Duplicate publication conflicts.
	err = c.Publish(ctx, "svc-A", id, paperrepro.Accounting, paperrepro.Buyer)
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Status != 409 {
		t.Fatalf("duplicate publish = %v, want HTTP 409", err)
	}
}

func TestErrorStatuses(t *testing.T) {
	c, _ := testClient(t)
	wantStatus := func(err error, status int) {
		t.Helper()
		var apiErr *APIError
		if !errors.As(err, &apiErr) || apiErr.Status != status {
			t.Fatalf("error = %v, want HTTP %d", err, status)
		}
	}
	_, err := c.Check(ctx, "ghost")
	wantStatus(err, 404)
	if err := c.CreateChoreography(ctx, "dup", nil); err != nil {
		t.Fatal(err)
	}
	wantStatus(c.CreateChoreography(ctx, "dup", nil), 409)
	_, err = c.RegisterPartyXML(ctx, "dup", "not xml")
	wantStatus(err, 400)
	_, err = c.Evolution(ctx, "evo-999")
	wantStatus(err, 404)

	// Version conflict through the API: two evolutions from the same
	// base, the second commit 409s.
	id := paperSetup(t, c)
	newAcc := apply(t, paperrepro.AccountingProcess(), paperrepro.OrderTwoChange())
	evo1, err := c.Evolve(ctx, id, newAcc)
	if err != nil {
		t.Fatal(err)
	}
	newAcc2 := apply(t, paperrepro.AccountingProcess(), paperrepro.CancelChange())
	evo2, err := c.Evolve(ctx, id, newAcc2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Commit(ctx, evo1.Evolution); err != nil {
		t.Fatal(err)
	}
	// Commit staleness is a precondition failure on /v2/.
	_, err = c.Commit(ctx, evo2.Evolution)
	wantStatus(err, 412)
	if !ErrIs(err, CodeStaleVersion) {
		t.Fatalf("stale commit code = %v, want %s", err, CodeStaleVersion)
	}
}

// TestParallelTrafficThroughAPI exercises the full HTTP stack with
// mixed concurrent traffic; run under -race it proves handler-level
// thread safety.
func TestParallelTrafficThroughAPI(t *testing.T) {
	c, _ := testClient(t)
	id := paperSetup(t, c)
	if _, err := c.Check(ctx, id); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				switch (w + i) % 3 {
				case 0:
					if _, err := c.Check(ctx, id); err != nil {
						t.Error(err)
						return
					}
				case 1:
					if _, err := c.Party(ctx, id, paperrepro.Buyer); err != nil {
						t.Error(err)
						return
					}
				default:
					newAcc := apply(t, paperrepro.AccountingProcess(), paperrepro.OrderTwoChange())
					evo, err := c.Evolve(ctx, id, newAcc)
					if err != nil {
						t.Error(err)
						return
					}
					// Stale commits are the expected outcome under
					// contention; anything else is a bug.
					if _, err := c.Commit(ctx, evo.Evolution); err != nil {
						var apiErr *APIError
						if !errors.As(err, &apiErr) || apiErr.Status != 412 {
							t.Error(err)
							return
						}
					}
				}
			}
		}(w)
	}
	wg.Wait()
	rep, err := c.Check(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Consistent {
		t.Fatalf("choreography inconsistent after invariant-change traffic: %+v", rep.Pairs)
	}
}

// TestHTTPServerTimeouts pins the transport bounds of the served
// http.Server: without them a client that trickles its headers holds
// a connection forever.
func TestHTTPServerTimeouts(t *testing.T) {
	hs := New(store.New()).HTTPServer("127.0.0.1:0")
	if hs.Addr != "127.0.0.1:0" || hs.Handler == nil || hs.ReadHeaderTimeout <= 0 || hs.ReadTimeout <= 0 || hs.IdleTimeout <= 0 {
		t.Fatalf("HTTPServer: addr %q, timeouts (read header, read, idle) %v, %v, %v; want all set",
			hs.Addr, hs.ReadHeaderTimeout, hs.ReadTimeout, hs.IdleTimeout)
	}
}
