package server

import (
	"bytes"
	"errors"
	"fmt"
	"net/http"
	"reflect"
	"testing"

	"repro/internal/bpel"
	"repro/internal/journal"
	"repro/internal/paperrepro"
)

// v64 makes an If-Match precondition pointer.
func v64(v uint64) *uint64 { return &v }

func wantCode(t *testing.T, err error, status int, code string) {
	t.Helper()
	var apiErr *APIError
	if !errors.As(err, &apiErr) {
		t.Fatalf("error = %v, want APIError %d/%s", err, status, code)
	}
	if apiErr.Status != status || apiErr.Code != code {
		t.Fatalf("error = HTTP %d %q (%s), want HTTP %d %q", apiErr.Status, apiErr.Code, apiErr.Message, status, code)
	}
}

// TestV2ErrorEnvelopeCodes pins the /v2/ error contract: stable
// machine-readable codes per failure class, asserted through the typed
// client.
func TestV2ErrorEnvelopeCodes(t *testing.T) {
	c, _ := testClient(t)

	// 404 not_found.
	_, err := c.Check(ctx, "ghost")
	wantCode(t, err, 404, CodeNotFound)
	_, err = c.Evolution(ctx, "evo-999")
	wantCode(t, err, 404, CodeNotFound)

	// 409 already_exists.
	if err := c.CreateChoreography(ctx, "dup", nil); err != nil {
		t.Fatal(err)
	}
	wantCode(t, c.CreateChoreography(ctx, "dup", nil), 409, CodeAlreadyExists)

	// 400 invalid_argument.
	_, err = c.RegisterPartyXML(ctx, "dup", "not xml")
	wantCode(t, err, 400, CodeInvalidArgument)
	_, err = c.EvolveOps(ctx, "dup", "A", nil)
	wantCode(t, err, 400, CodeInvalidArgument)
	_, err = c.EvolveOps(ctx, "dup", "A", []OpJSON{{Kind: "teleport"}})
	wantCode(t, err, 400, CodeInvalidArgument)

	// ErrIs matches by code.
	if !ErrIs(err, CodeInvalidArgument) || ErrIs(err, CodeNotFound) {
		t.Fatalf("ErrIs misclassified %v", err)
	}

	// 400 invalid_argument, nothing applied: processes that BPEL
	// validation (two siblings named alike) or registry inference (an
	// invoke without a partner) refuses, registered, updated, batched
	// or evolved into.
	if err := c.CreateChoreography(ctx, "malformed", nil); err != nil {
		t.Fatal(err)
	}
	if _, err := c.RegisterPartyXML(ctx, "malformed", `<process name="x" owner="X"><sequence name="s">`+
		`<invoke name="a" partner="Y" operation="aOp"/></sequence></process>`); err != nil {
		t.Fatal(err)
	}
	twin := `<invoke name="a" partner="Y" operation="aOp"/>`
	orphan := `<invoke name="b" operation="zz"/>`
	for _, body := range []string{twin + twin, orphan} {
		_, err = c.RegisterPartyXML(ctx, "malformed", `<process name="z" owner="Z"><sequence name="s">`+body+`</sequence></process>`)
		wantCode(t, err, 400, CodeInvalidArgument)
	}
	for _, xml := range []string{twin, orphan} {
		_, err = c.EvolveOps(ctx, "malformed", "X", []OpJSON{{Kind: "insert", Path: "Sequence:s/Invoke:a", XML: xml, After: true}})
		wantCode(t, err, 400, CodeInvalidArgument)
	}
	orphanX := &bpel.Process{Name: "x", Owner: "X", Body: &bpel.Invoke{BlockName: "b", Op: "zz"}}
	_, err = c.UpdateParty(ctx, "malformed", orphanX, nil)
	wantCode(t, err, 400, CodeInvalidArgument)
	_, err = c.RegisterParties(ctx, "malformed", []*bpel.Process{orphanX}, nil)
	wantCode(t, err, 400, CodeInvalidArgument)
	if info, err := c.Choreography(ctx, "malformed"); err != nil || info.Version != 1 || len(info.Parties) != 1 {
		t.Fatalf("after the refused requests: %+v, %v; want version 1 with X alone", info, err)
	}

	// 413 payload_too_large: a raw body one byte past the cap.
	huge := append([]byte(`{"id":"`), bytes.Repeat([]byte("x"), maxBodyBytes)...)[:maxBodyBytes+1]
	_, err = c.roundTrip(ctx, "POST", "/v2/choreographies", nil, "", huge, true, nil)
	wantCode(t, err, 413, CodePayloadTooLarge)
	// The cap holds past the first value too: decode reads on to EOF.
	padded := append([]byte(`{"id":"padded"}`), bytes.Repeat([]byte(" "), maxBodyBytes)...)
	_, err = c.roundTrip(ctx, "POST", "/v2/choreographies", nil, "", padded, true, nil)
	wantCode(t, err, 413, CodePayloadTooLarge)
}

// TestEnvelopeJournalTooLarge pins the answer to a request whose
// journal record would pass journal.MaxRecordBytes: the client's 413
// payload_too_large, not a 500.
func TestEnvelopeJournalTooLarge(t *testing.T) {
	err := fmt.Errorf("store: %w", fmt.Errorf("%w: %d-byte payload", journal.ErrTooLarge, journal.MaxRecordBytes))
	if status, env := envelope(err); status != http.StatusRequestEntityTooLarge || env.Code != CodePayloadTooLarge {
		t.Fatalf("envelope(%v) = %d %q, want 413 %q", err, status, env.Code, CodePayloadTooLarge)
	}
}

// TestV2StaleIfMatch pins the optimistic-concurrency contract: a
// commit under a stale If-Match answers 412 stale_version, a fresh one
// succeeds, and an update racing a batch loses with 412 as well.
func TestV2StaleIfMatch(t *testing.T) {
	c, _ := testClient(t)
	id := paperSetup(t, c)

	newAcc := apply(t, paperrepro.AccountingProcess(), paperrepro.OrderTwoChange())
	evo, err := c.Evolve(ctx, id, newAcc)
	if err != nil {
		t.Fatal(err)
	}
	if evo.BaseVersion != 3 {
		t.Fatalf("ETag-derived base version = %d, want 3 (three registrations)", evo.BaseVersion)
	}

	// An If-Match behind the current snapshot is refused up front.
	_, err = c.CommitIfMatch(ctx, evo.Evolution, evo.BaseVersion-1)
	wantCode(t, err, 412, CodeStaleVersion)

	// The version the evolve handed out commits.
	commit, err := c.CommitIfMatch(ctx, evo.Evolution, evo.BaseVersion)
	if err != nil {
		t.Fatal(err)
	}
	if commit.Version != evo.BaseVersion+1 {
		t.Fatalf("committed version = %d", commit.Version)
	}

	// Replaying the same commit under the old precondition is stale.
	_, err = c.CommitIfMatch(ctx, evo.Evolution, evo.BaseVersion)
	wantCode(t, err, 412, CodeStaleVersion)

	// A guarded single-party update behind the current version loses.
	_, err = c.UpdateParty(ctx, id, paperrepro.LogisticsProcess(), v64(evo.BaseVersion))
	wantCode(t, err, 412, CodeStaleVersion)
	if _, err := c.UpdateParty(ctx, id, paperrepro.LogisticsProcess(), v64(commit.Version)); err != nil {
		t.Fatal(err)
	}
}

// TestNoParamRoutesBody pins the body of the POST routes that take no
// parameters: check, commit and checkpoint answer 200 to an empty body
// and to {} (with or without whitespace), and 400 invalid_argument to
// anything else, so a commit whose body carries a precondition is
// refused instead of applied unconditionally.
func TestNoParamRoutesBody(t *testing.T) {
	c, _ := durableClient(t)
	id := paperSetup(t, c)
	newAcc := apply(t, paperrepro.AccountingProcess(), paperrepro.OrderTwoChange())
	post := func(path, body string) error {
		_, err := c.roundTrip(ctx, "POST", path, nil, "", []byte(body), body != "", nil)
		return err
	}
	paths := func(evo string) []string {
		return []string{"/v2/choreographies/" + id + "/check", "/v2/evolutions/" + evo + "/commit", "/v2/admin/checkpoint"}
	}
	for _, body := range []string{"", "{}", " { }\n"} {
		evo, err := c.Evolve(ctx, id, newAcc)
		if err != nil {
			t.Fatal(err)
		}
		for _, path := range paths(evo.Evolution) {
			if err := post(path, body); err != nil {
				t.Errorf("POST %s with body %q: %v", path, body, err)
			}
		}
	}
	evo, err := c.Evolve(ctx, id, newAcc)
	if err != nil {
		t.Fatal(err)
	}
	for _, body := range []string{"{", `{"ifMatch":1}`, `{}{"ifMatch":1}`, "null"} {
		for _, path := range paths(evo.Evolution) {
			wantCode(t, post(path, body), 400, CodeInvalidArgument)
		}
	}
	info, err := c.Choreography(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	if info.Version != evo.BaseVersion {
		t.Fatalf("choreography at version %d after refused commits, want %d", info.Version, evo.BaseVersion)
	}
}

// TestV2ApplySuggestionRace pins the 409 conflict on the
// apply-suggestion race: when the partner's own process changes after
// the analysis, the suggestion paths are void and the apply must be
// refused with CodeConflict (not 412 — the snapshot the client acts on
// is not stale, the partner is).
func TestV2ApplySuggestionRace(t *testing.T) {
	c, _ := testClient(t)
	id := paperSetup(t, c)

	newAcc := apply(t, paperrepro.AccountingProcess(), paperrepro.CancelChange())
	evo, err := c.Evolve(ctx, id, newAcc)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Commit(ctx, evo.Evolution); err != nil {
		t.Fatal(err)
	}

	// The buyer changes independently before applying the suggestion.
	if _, err := c.UpdateParty(ctx, id, paperrepro.BuyerProcess(), nil); err != nil {
		t.Fatal(err)
	}
	_, err = c.Apply(ctx, evo.Evolution, paperrepro.Buyer, nil)
	wantCode(t, err, 409, CodeConflict)
}

// TestV2BatchParties pins the batch-register semantics: one call, one
// commit, one version bump for the whole party set.
func TestV2BatchParties(t *testing.T) {
	c, _ := testClient(t)
	const id = "batch"
	if err := c.CreateChoreography(ctx, id, []string{"L.getStatusLOp"}); err != nil {
		t.Fatal(err)
	}
	batch, err := c.RegisterParties(ctx, id, []*bpel.Process{
		paperrepro.BuyerProcess(), paperrepro.AccountingProcess(), paperrepro.LogisticsProcess(),
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if batch.Version != 1 {
		t.Fatalf("batch version = %d, want 1 (one commit)", batch.Version)
	}
	if len(batch.Parties) != 3 {
		t.Fatalf("batch parties = %d", len(batch.Parties))
	}
	rep, err := c.Check(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Consistent {
		t.Fatalf("batch-registered choreography inconsistent: %+v", rep.Pairs)
	}

	// A second batch guarded by the stale version is refused; the fresh
	// one updates in place.
	_, err = c.RegisterParties(ctx, id, []*bpel.Process{paperrepro.BuyerProcess()}, v64(batch.Version+7))
	wantCode(t, err, 412, CodeStaleVersion)
	batch2, err := c.RegisterParties(ctx, id, []*bpel.Process{paperrepro.BuyerProcess()}, v64(batch.Version))
	if err != nil {
		t.Fatal(err)
	}
	if batch2.Version != batch.Version+1 || batch2.Parties[0].Version != 2 {
		t.Fatalf("update batch = %+v", batch2)
	}
}

// TestV2BatchCheck pins the batch check contract: per-ID outcomes,
// failures inline as envelopes.
func TestV2BatchCheck(t *testing.T) {
	c, _ := testClient(t)
	id := paperSetup(t, c)
	results, err := c.CheckBatch(ctx, []string{id, "ghost"})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("batch results = %d", len(results))
	}
	if results[0].Report == nil || !results[0].Report.Consistent || results[0].Error != nil {
		t.Fatalf("known choreography result = %+v", results[0])
	}
	if results[1].Report != nil || results[1].Error == nil || results[1].Error.Code != CodeNotFound {
		t.Fatalf("unknown choreography result = %+v", results[1])
	}

	_, err = c.CheckBatch(ctx, nil)
	wantCode(t, err, 400, CodeInvalidArgument)
}

// TestV2Pagination pins cursor pagination on the list endpoint: pages
// respect the limit, chain through nextPageToken without overlap, and
// a malformed token is invalid_argument.
func TestV2Pagination(t *testing.T) {
	c, _ := testClient(t)
	const n = 7
	for i := 0; i < n; i++ {
		if err := c.CreateChoreography(ctx, fmt.Sprintf("chor-%02d", i), nil); err != nil {
			t.Fatal(err)
		}
	}
	var all []string
	token := ""
	pages := 0
	for {
		page, next, err := c.ChoreographiesPage(ctx, 3, token)
		if err != nil {
			t.Fatal(err)
		}
		if len(page) > 3 {
			t.Fatalf("page of %d exceeds limit 3", len(page))
		}
		all = append(all, page...)
		pages++
		if next == "" {
			break
		}
		token = next
	}
	if pages != 3 || len(all) != n {
		t.Fatalf("pages = %d, items = %d, want 3 pages of %d total", pages, len(all), n)
	}
	for i := 1; i < len(all); i++ {
		if all[i-1] >= all[i] {
			t.Fatalf("pagination out of order or overlapping at %d: %v", i, all)
		}
	}
	// The iterator variant sees the same population.
	ids, err := c.Choreographies(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ids, all) {
		t.Fatalf("iterator %v != paged %v", ids, all)
	}
	_, _, err = c.ChoreographiesPage(ctx, 3, "%%%not-base64%%%")
	wantCode(t, err, 400, CodeInvalidArgument)
}

// TestV2MultiOpEvolveMatchesSequentialV1 is the acceptance criterion:
// one /v2/ evolve carrying [order_2, tracking-limit] as a single
// change transaction must produce the same classification and
// propagation as applying the ops sequentially on the client and
// submitting the final process as one whole-process replacement — and
// commit as one version bump.
func TestV2MultiOpEvolveMatchesSequentialV1(t *testing.T) {
	c, _ := testClient(t)

	ops := []interface {
		Apply(*bpel.Process) (*bpel.Process, error)
	}{
		paperrepro.OrderTwoChange(), paperrepro.TrackingLimitChange(),
	}
	final := paperrepro.AccountingProcess()
	for _, op := range ops {
		next, err := op.Apply(final)
		if err != nil {
			t.Fatal(err)
		}
		final = next
	}

	// Reference analysis: whole-process replacement of the sequentially
	// composed result, on its own choreography.
	idRef := "procurement-ref"
	if err := c.CreateChoreography(ctx, idRef, []string{"L.getStatusLOp"}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.RegisterParties(ctx, idRef, []*bpel.Process{
		paperrepro.BuyerProcess(), paperrepro.AccountingProcess(), paperrepro.LogisticsProcess(),
	}, nil); err != nil {
		t.Fatal(err)
	}
	ref, err := c.Evolve(ctx, idRef, final)
	if err != nil {
		t.Fatal(err)
	}

	// The multi-op transaction on an identical choreography.
	id := "procurement-v2"
	if err := c.CreateChoreography(ctx, id, []string{"L.getStatusLOp"}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.RegisterParties(ctx, id, []*bpel.Process{
		paperrepro.BuyerProcess(), paperrepro.AccountingProcess(), paperrepro.LogisticsProcess(),
	}, nil); err != nil {
		t.Fatal(err)
	}
	// Express the same two changes as wire ops: the composed new
	// subtrees replace the receive and the tracking loop.
	pickAfterOrderTwo, err := paperrepro.OrderTwoChange().Apply(paperrepro.AccountingProcess())
	if err != nil {
		t.Fatal(err)
	}
	newOrder, err := pickAfterOrderTwo.Find(bpel.Path{"Sequence:accounting process", "Pick:order formats"})
	if err != nil {
		t.Fatal(err)
	}
	newOrderXML, err := bpel.MarshalActivityXML(newOrder)
	if err != nil {
		t.Fatal(err)
	}
	afterTracking, err := paperrepro.TrackingLimitChange().Apply(paperrepro.AccountingProcess())
	if err != nil {
		t.Fatal(err)
	}
	newTracking, err := afterTracking.Find(bpel.Path{"Sequence:accounting process", "Pick:track once?"})
	if err != nil {
		t.Fatal(err)
	}
	newTrackingXML, err := bpel.MarshalActivityXML(newTracking)
	if err != nil {
		t.Fatal(err)
	}
	evo, err := c.EvolveOps(ctx, id, paperrepro.Accounting, []OpJSON{
		{Kind: "replace", Path: "Sequence:accounting process/Receive:order", XML: string(newOrderXML)},
		{Kind: "replace", Path: "Sequence:accounting process/While:parcel tracking", XML: string(newTrackingXML)},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(evo.Ops) != 2 {
		t.Fatalf("transaction ops = %v, want 2", evo.Ops)
	}

	// One evolution, identical analysis.
	if evo.PublicChanged != ref.PublicChanged || evo.NeedsPropagation != ref.NeedsPropagation {
		t.Fatalf("multi-op analysis flags differ: %+v vs %+v", evo, ref)
	}
	if !reflect.DeepEqual(evo.Impacts, ref.Impacts) {
		t.Fatalf("multi-op impacts differ from whole-process replacement:\n%+v\nvs\n%+v", evo.Impacts, ref.Impacts)
	}

	// Committing the transaction bumps the version once.
	commit, err := c.CommitIfMatch(ctx, evo.Evolution, evo.BaseVersion)
	if err != nil {
		t.Fatal(err)
	}
	if commit.Version != evo.BaseVersion+1 {
		t.Fatalf("transaction commit version = %d, want %d", commit.Version, evo.BaseVersion+1)
	}
}
