package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/store"
)

// durableClient spins up a choreod over a journaled store in a temp
// directory and returns the typed client plus the journal dir (for
// reopening after a simulated crash).
func durableClient(t *testing.T) (*Client, string) {
	t.Helper()
	dir := t.TempDir()
	st, err := store.Open(store.WithJournal(dir), store.WithShards(4))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	srv := New(st)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return NewClient(ts.URL, ts.Client()), dir
}

// TestAdminCheckpointEndToEnd drives the durable service through the
// wire: mutate, checkpoint via POST /v2/admin/checkpoint, crash,
// reopen, and observe identical state from a second server.
func TestAdminCheckpointEndToEnd(t *testing.T) {
	c, dir := durableClient(t)
	id := paperSetup(t, c)
	if _, err := c.SampleInstances(ctx, id, "B", 1, 5, 8); err != nil {
		t.Fatal(err)
	}
	info, err := c.Checkpoint(ctx)
	if err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	if info.LSN == 0 || info.SnapshotBytes == 0 {
		t.Fatalf("checkpoint response = %+v", info)
	}
	// More mutations after the checkpoint: recovery must replay the
	// tail on top of the snapshot.
	if _, err := c.SampleInstances(ctx, id, "A", 2, 3, 8); err != nil {
		t.Fatal(err)
	}

	// "Crash": reopen the journal directory in a second store/server.
	st2, err := store.Open(store.WithJournal(dir), store.WithShards(4))
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	defer st2.Close()
	ts2 := httptest.NewServer(New(st2).Handler())
	defer ts2.Close()
	c2 := NewClient(ts2.URL, ts2.Client())

	ch, err := c2.Choreography(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	if len(ch.Parties) != 3 {
		t.Fatalf("recovered %d parties, want 3", len(ch.Parties))
	}
	rep, err := c2.Check(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Consistent {
		t.Fatal("recovered scenario not consistent")
	}
	recs, err := c2.Migrate(ctx, id, "B", "")
	if err != nil {
		t.Fatal(err)
	}
	if recs.Total != 5 {
		t.Fatalf("recovered %d B instances, want 5", recs.Total)
	}
}

// TestAdminCheckpointInMemory pins the error contract on a store
// without a journal.
func TestAdminCheckpointInMemory(t *testing.T) {
	c, _ := testClient(t)
	_, err := c.Checkpoint(ctx)
	if !ErrIs(err, CodeInvalidArgument) {
		t.Fatalf("Checkpoint on in-memory store = %v, want %s", err, CodeInvalidArgument)
	}
}

// TestCancelMigrationHonorsRequestContext pins the satellite fix: a
// DELETE whose request context is already done must not sleep out the
// settle window — it answers immediately with the job's current
// state, and the cancel itself still takes effect.
func TestCancelMigrationHonorsRequestContext(t *testing.T) {
	c, srv := testClient(t)
	id := paperSetup(t, c)
	if _, err := c.SampleInstances(ctx, id, "B", 1, 5, 8); err != nil {
		t.Fatal(err)
	}
	job, err := c.StartMigration(ctx, id, 2)
	if err != nil {
		t.Fatal(err)
	}
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	req := httptest.NewRequest("DELETE",
		"/v2/choreographies/"+id+"/migrations/"+job.Job, nil).WithContext(canceled)
	rec := httptest.NewRecorder()
	start := time.Now()
	srv.Handler().ServeHTTP(rec, req)
	elapsed := time.Since(start)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d, body %s", rec.Code, rec.Body)
	}
	var out MigrationJobJSON
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatalf("body: %v", err)
	}
	if out.Job != job.Job {
		t.Fatalf("answered job %q, want %q", out.Job, job.Job)
	}
	if elapsed >= cancelSettleTimeout {
		t.Fatalf("dead request slept %v — the settle window was not skipped", elapsed)
	}
}

// TestPageLimitClamped pins the server-side maximum page size across
// the pagination helpers every /v2/ listing goes through.
func TestPageLimitClamped(t *testing.T) {
	names := make([]string, 2*maxPageLimit)
	for i := range names {
		names[i] = fmt.Sprintf("n-%06d", i)
	}
	page, next, err := paginate(names, 1<<30, "")
	if err != nil {
		t.Fatal(err)
	}
	if len(page) != maxPageLimit {
		t.Fatalf("paginate honored an oversized limit: got %d, want %d", len(page), maxPageLimit)
	}
	if next == "" {
		t.Fatal("paginate with clamped limit lost the continuation token")
	}
	req := httptest.NewRequest("GET", "/v2/choreographies?limit=999999999", nil)
	limit, _, err := pageQuery(req)
	if err != nil {
		t.Fatal(err)
	}
	if limit != maxPageLimit {
		t.Fatalf("pageQuery returned %d, want clamp to %d", limit, maxPageLimit)
	}
	// Negative and malformed limits stay rejected.
	req = httptest.NewRequest("GET", "/v2/choreographies?limit=-1", nil)
	if _, _, err := pageQuery(req); err == nil {
		t.Fatal("pageQuery accepted a negative limit")
	}
}

// TestResponseTooLargeError pins the client satellite: a response
// body past the 8 MiB cap surfaces as ErrResponseTooLarge, not as an
// opaque JSON decode error on the silently truncated body.
func TestResponseTooLargeError(t *testing.T) {
	huge := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		// A syntactically valid JSON object bigger than the cap: only
		// the cap detection can explain the failure.
		fmt.Fprintf(w, `{"id": %q, "version": 1, "parties": []}`,
			strings.Repeat("x", maxBodyBytes))
	}))
	defer huge.Close()
	c := NewClient(huge.URL, huge.Client())
	_, err := c.Choreography(ctx, "anything")
	if !errors.Is(err, ErrResponseTooLarge) {
		t.Fatalf("oversized response error = %v, want ErrResponseTooLarge", err)
	}
	// A body exactly within the cap still decodes.
	ok := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(w, `{"id": %q, "version": 1, "parties": []}`,
			strings.Repeat("x", maxBodyBytes-64))
	}))
	defer ok.Close()
	c2 := NewClient(ok.URL, ok.Client())
	if _, err := c2.Choreography(ctx, "anything"); err != nil {
		t.Fatalf("in-cap response failed: %v", err)
	}
}
