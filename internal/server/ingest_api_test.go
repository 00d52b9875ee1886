package server

import (
	"fmt"
	"net/http/httptest"
	"testing"

	"repro/internal/paperrepro"
	"repro/internal/store"
)

// TestIngestEventsEndToEnd drives the streaming path through the wire:
// events land, stats count them, a schema commit is followed online by
// the next event.
func TestIngestEventsEndToEnd(t *testing.T) {
	c, _ := testClient(t)
	id := paperSetup(t, c)

	n, err := c.IngestEvents(ctx, id, []IngestEventJSON{
		{Party: paperrepro.Buyer, Instance: "conv-1", Label: "B#A#orderOp"},
		{Party: paperrepro.Buyer, Instance: "conv-2", Label: "B#A#orderOp"},
		{Party: paperrepro.Buyer, Instance: "conv-2", Label: "B#Z#bogusOp"}, // deviates
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Fatalf("ingested %d, want 3", n)
	}
	st, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.EventsIngested != 3 || st.TrackedInstances != 2 || st.InstancesByChoreography[id] != 2 {
		t.Fatalf("stats = {ingested %d, tracked %d, byChor %v}, want {3, 2, map[%s:2]}",
			st.EventsIngested, st.TrackedInstances, st.InstancesByChoreography, id)
	}

	// Commit a schema change; the compliant instance's next event
	// migrates it online.
	acc := apply(t, paperrepro.AccountingProcess(), paperrepro.TrackingLimitChange())
	evo, err := c.Evolve(ctx, id, acc)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Commit(ctx, evo.Evolution); err != nil {
		t.Fatal(err)
	}
	if _, err := c.IngestEvents(ctx, id, []IngestEventJSON{
		{Party: paperrepro.Buyer, Instance: "conv-1", Label: "A#B#deliveryOp"},
	}); err != nil {
		t.Fatal(err)
	}
	if st, err = c.Stats(ctx); err != nil {
		t.Fatal(err)
	}
	if st.OnlineMigrations != 1 {
		t.Fatalf("onlineMigrations = %d, want 1", st.OnlineMigrations)
	}
}

// TestIngestEventsValidation pins the wire-level rejections: empty and
// oversize batches, malformed labels, unknown choreographies.
func TestIngestEventsValidation(t *testing.T) {
	c, _ := testClient(t)
	id := paperSetup(t, c)

	if _, err := c.IngestEvents(ctx, id, nil); !ErrIs(err, CodeInvalidArgument) {
		t.Fatalf("empty batch: %v, want %s", err, CodeInvalidArgument)
	}
	huge := make([]IngestEventJSON, maxIngestBatch+1)
	for i := range huge {
		huge[i] = IngestEventJSON{Party: paperrepro.Buyer, Instance: "i", Label: "B#A#orderOp"}
	}
	if _, err := c.IngestEvents(ctx, id, huge); !ErrIs(err, CodeInvalidArgument) {
		t.Fatalf("oversize batch: %v, want %s", err, CodeInvalidArgument)
	}
	bad := []IngestEventJSON{{Party: paperrepro.Buyer, Instance: "i", Label: "not-a-label"}}
	if _, err := c.IngestEvents(ctx, id, bad); !ErrIs(err, CodeInvalidArgument) {
		t.Fatalf("malformed label: %v, want %s", err, CodeInvalidArgument)
	}
	ok := []IngestEventJSON{{Party: paperrepro.Buyer, Instance: "i", Label: "B#A#orderOp"}}
	if _, err := c.IngestEvents(ctx, "ghost", ok); !ErrIs(err, CodeNotFound) {
		t.Fatalf("unknown choreography: %v, want %s", err, CodeNotFound)
	}
}

// TestAddInstancesValidation pins that recording instances refuses
// what the event path refuses: an empty instance ID and an empty
// label each answer 400 invalid_argument, and nothing is recorded.
func TestAddInstancesValidation(t *testing.T) {
	c, _ := testClient(t)
	id := paperSetup(t, c)

	for _, bad := range [][]InstanceJSON{
		{{ID: "", Trace: []string{"B#A#orderOp"}}},
		{{ID: "ok", Trace: []string{"B#A#orderOp"}}, {ID: "eps", Trace: []string{"", "B#A#orderOp"}}},
	} {
		if _, err := c.AddInstances(ctx, id, paperrepro.Buyer, bad); !ErrIs(err, CodeInvalidArgument) {
			t.Fatalf("AddInstances(%+v) = %v, want %s", bad, err, CodeInvalidArgument)
		}
		// A sample in the same request is refused with them.
		req := InstancesRequest{Instances: bad, Sample: &SampleJSON{Seed: 1, N: 3, MaxLen: 4}}
		if _, err := c.do(ctx, "POST", "/v2/choreographies/"+id+"/parties/B/instances", nil, req, nil); !ErrIs(err, CodeInvalidArgument) {
			t.Fatalf("instances %+v with a sample = %v, want %s", bad, err, CodeInvalidArgument)
		}
	}
	st, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.TrackedInstances != 0 {
		t.Fatalf("refused requests recorded %d instances", st.TrackedInstances)
	}
}

// checkSampleCap sends a sample past one cap, with explicit instances
// in the same request: it must answer 400 invalid_argument and record
// nothing. A sample at both caps is then recorded.
func checkSampleCap(t *testing.T, over SampleJSON) {
	t.Helper()
	c, _ := testClient(t)
	id := paperSetup(t, c)
	req := InstancesRequest{Instances: []InstanceJSON{{ID: "ok", Trace: []string{"B#A#orderOp"}}}, Sample: &over}
	if _, err := c.do(ctx, "POST", "/v2/choreographies/"+id+"/parties/B/instances", nil, req, nil); !ErrIs(err, CodeInvalidArgument) {
		t.Fatalf("sample %+v = %v, want %s", over, err, CodeInvalidArgument)
	}
	if st, err := c.Stats(ctx); err != nil || st.TrackedInstances != 0 {
		t.Fatalf("refused sample recorded %d instances (%v)", st.TrackedInstances, err)
	}
	if n, err := c.SampleInstances(ctx, id, paperrepro.Buyer, 1, maxSampleN, maxSampleLen); err != nil || n != maxSampleN {
		t.Fatalf("sample at the caps = %d, %v; want %d recorded", n, err, maxSampleN)
	}
}

// TestSampleNCap pins the cap on a sample's instance count.
func TestSampleNCap(t *testing.T) {
	checkSampleCap(t, SampleJSON{Seed: 1, N: maxSampleN + 1, MaxLen: 4})
}

// TestSampleMaxLenCap pins the cap on a sample's trace length.
func TestSampleMaxLenCap(t *testing.T) {
	checkSampleCap(t, SampleJSON{Seed: 1, N: 3, MaxLen: maxSampleLen + 1})
}

// TestIngestEventsBackpressure pins the 429 contract end to end: a
// batch over a lane's queue bound answers resource_exhausted with a
// positive retryAfter detail the client helper can parse.
func TestIngestEventsBackpressure(t *testing.T) {
	srv := New(store.New(store.WithShards(2), store.WithIngestWorkers(1), store.WithIngestQueueCap(1)))
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	c := NewClient(ts.URL, ts.Client())
	id := paperSetup(t, c)

	// Two events on one instance share a lane; the lane holds one.
	batch := []IngestEventJSON{
		{Party: paperrepro.Buyer, Instance: "i", Label: "B#A#orderOp"},
		{Party: paperrepro.Buyer, Instance: "i", Label: "B#A#getStatusOp"},
	}
	_, err := c.IngestEvents(ctx, id, batch)
	if !ErrIs(err, CodeResourceExhausted) {
		t.Fatalf("oversized batch: %v, want %s", err, CodeResourceExhausted)
	}
	backoff, hinted := RetryAfter(err)
	if !hinted || backoff <= 0 {
		t.Fatalf("RetryAfter(%v) = %s, %v — want a positive hint", err, backoff, hinted)
	}
	if _, ok := RetryAfter(fmt.Errorf("unrelated")); ok {
		t.Fatal("RetryAfter matched an unrelated error")
	}
	// The rejection was all-or-nothing: a fitting batch still lands.
	if n, err := c.IngestEvents(ctx, id, batch[:1]); err != nil || n != 1 {
		t.Fatalf("retry after backpressure: n=%d err=%v", n, err)
	}
	st, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.IngestRejected != 2 || st.EventsIngested != 1 {
		t.Fatalf("stats = {rejected %d, ingested %d}, want {2, 1}", st.IngestRejected, st.EventsIngested)
	}
}
