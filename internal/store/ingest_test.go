package store

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/change"
	"repro/internal/ingest"
	"repro/internal/instance"
	"repro/internal/label"
	"repro/internal/paperrepro"
)

// sampleTraces draws valid conversation traces of a party as event
// sources for the streaming tests.
func sampleTraces(t *testing.T, s *Store, id, party string, seed int64, n, maxLen int) []instance.Instance {
	t.Helper()
	snap, err := s.Snapshot(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	ps, ok := snap.Party(party)
	if !ok {
		t.Fatalf("party %s missing", party)
	}
	return instance.SampleInstances(ps.Public, seed, n, maxLen)
}

// interleave turns per-instance traces into one round-robin event
// stream: per-instance order is preserved, instances are interleaved.
func interleave(party string, insts []instance.Instance) []ingest.Event {
	var out []ingest.Event
	for pos := 0; ; pos++ {
		progressed := false
		for _, inst := range insts {
			if pos < len(inst.Trace) {
				out = append(out, ingest.Event{Party: party, Instance: inst.ID, Label: inst.Trace[pos]})
				progressed = true
			}
		}
		if !progressed {
			return out
		}
	}
}

// submitAll feeds a stream through IngestEvents in deterministic
// random-sized batches.
func submitAll(t *testing.T, s *Store, id string, events []ingest.Event, seed int64) {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	for len(events) > 0 {
		n := r.Intn(40) + 1
		if n > len(events) {
			n = len(events)
		}
		got, err := s.IngestEvents(ctx, id, events[:n])
		if err != nil {
			t.Fatal(err)
		}
		if got != n {
			t.Fatalf("IngestEvents applied %d of %d", got, n)
		}
		events = events[n:]
	}
}

func TestStreamingMatchesWholeTraceChecker(t *testing.T) {
	s, id := paperStore(t)
	parties := []string{paperrepro.Buyer, paperrepro.Accounting, paperrepro.Logistics}

	// Phase 1: stream the first half of every trace.
	perParty := map[string][]instance.Instance{}
	var firstHalf, secondHalf []ingest.Event
	for i, party := range parties {
		sampled := sampleTraces(t, s, id, party, int64(500+i), 20, 10)
		// An instance only exists on the streaming path once an event
		// arrives, so empty sampled traces are no instances at all.
		insts := sampled[:0]
		for _, inst := range sampled {
			if len(inst.Trace) > 0 {
				insts = append(insts, inst)
			}
		}
		// Salt in deviating instances: valid prefix, then a label the
		// interner has never seen.
		for j := 0; j < 3; j++ {
			insts = append(insts, instance.Instance{
				ID:    fmt.Sprintf("dev-%d", j),
				Trace: append(append([]label.Label{}, insts[j].Trace...), label.Label(fmt.Sprintf("%s#Z#bogus%dOp", party, j))),
			})
		}
		perParty[party] = insts
		stream := interleave(party, insts)
		firstHalf = append(firstHalf, stream[:len(stream)/2]...)
		secondHalf = append(secondHalf, stream[len(stream)/2:]...)
	}
	submitAll(t, s, id, firstHalf, 1)

	// Interleaved schema commit: accounting caps its tracking loop.
	evo, err := s.Evolve(ctx, id, paperrepro.Accounting, paperrepro.TrackingLimitChange())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.CommitEvolution(ctx, evo); err != nil {
		t.Fatal(err)
	}

	// Phase 2: stream the rest against the new schema.
	submitAll(t, s, id, secondHalf, 2)

	snap, err := s.Snapshot(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	for _, party := range parties {
		ps, _ := snap.Party(party)
		chk, err := ps.complianceChecker()
		if err != nil {
			t.Fatal(err)
		}
		// Recorded traces must be exactly the submitted event streams.
		recorded, err := s.Instances(ctx, id, party)
		if err != nil {
			t.Fatal(err)
		}
		wantTraces := map[string][]label.Label{}
		for _, inst := range perParty[party] {
			wantTraces[inst.ID] = inst.Trace
		}
		if len(recorded) != len(perParty[party]) {
			t.Fatalf("%s: %d recorded instances, want %d", party, len(recorded), len(perParty[party]))
		}
		for _, inst := range recorded {
			want := wantTraces[inst.ID]
			if len(inst.Trace) != len(want) {
				t.Fatalf("%s/%s: trace length %d, want %d", party, inst.ID, len(inst.Trace), len(want))
			}
			for i := range want {
				if inst.Trace[i] != want[i] {
					t.Fatalf("%s/%s: trace[%d] = %s, want %s", party, inst.ID, i, inst.Trace[i], want[i])
				}
			}
		}
		// The streaming classification must deep-equal the whole-trace
		// checker verdict, deviation point included.
		states, err := s.InstanceStates(ctx, id, party)
		if err != nil {
			t.Fatal(err)
		}
		byID := map[string]InstanceState{}
		for _, st := range states {
			byID[st.Party+"\x00"+st.ID] = st
		}
		if len(states) != len(recorded) {
			t.Fatalf("%s: %d instance states, want %d", party, len(states), len(recorded))
		}
		for _, inst := range recorded {
			st, ok := byID[party+"\x00"+inst.ID]
			if !ok {
				t.Fatalf("%s/%s: no streamed state", party, inst.ID)
			}
			wantStatus, err := instance.Check(inst, ps.Public)
			if err != nil {
				t.Fatal(err)
			}
			wantDev := -1
			q := chk.Start()
			for i, l := range inst.Trace {
				if q = chk.Step(q, l); q < 0 {
					wantDev = i
					break
				}
			}
			if st.Status != wantStatus || st.Deviation != wantDev || st.TracePos != len(inst.Trace) {
				t.Fatalf("%s/%s: streamed {status %v, dev %d, pos %d}, whole-trace {status %v, dev %d, pos %d}",
					party, inst.ID, st.Status, st.Deviation, st.TracePos, wantStatus, wantDev, len(inst.Trace))
			}
			// Schema tags never run ahead of the snapshot and never
			// downgrade below the pre-commit creation tag floor.
			if st.Schema > snap.Version {
				t.Fatalf("%s/%s: schema tag %d beyond snapshot %d", party, inst.ID, st.Schema, snap.Version)
			}
		}
	}
	st := s.Stats()
	if st.OnlineMigrations == 0 {
		t.Fatal("no online migrations across an interleaved schema commit")
	}
	if want := uint64(len(firstHalf) + len(secondHalf)); st.EventsIngested != want {
		t.Fatalf("eventsIngested = %d, want %d", st.EventsIngested, want)
	}
}

// An instance at a compliant point whose tag trails a committed schema
// migrates online with its next event; a deviated instance is stranded
// with its deviation point recorded.
func TestIngestOnlineMigration(t *testing.T) {
	s, id := paperStore(t)
	base, err := s.Snapshot(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	ev := func(inst string, l string) ingest.Event {
		return ingest.Event{Party: paperrepro.Buyer, Instance: inst, Label: label.Label(l)}
	}
	// Track two instances under the base schema: one compliant, one
	// deviating on its second message.
	if _, err := s.IngestEvents(ctx, id, []ingest.Event{
		ev("good", "B#A#orderOp"),
		ev("bad", "B#A#orderOp"), ev("bad", "B#Z#nonsenseOp"),
	}); err != nil {
		t.Fatal(err)
	}
	states, err := s.InstanceStates(ctx, id, paperrepro.Buyer)
	if err != nil {
		t.Fatal(err)
	}
	byID := map[string]InstanceState{}
	for _, st := range states {
		byID[st.ID] = st
	}
	if got := byID["good"]; got.Schema != base.Version || got.Status != instance.Migratable || got.Deviation != -1 {
		t.Fatalf("good pre-commit: %+v", got)
	}
	if got := byID["bad"]; got.Status != instance.NonReplayable || got.Deviation != 1 {
		t.Fatalf("bad pre-commit: %+v", got)
	}

	evo, err := s.Evolve(ctx, id, paperrepro.Accounting, paperrepro.TrackingLimitChange())
	if err != nil {
		t.Fatal(err)
	}
	next, err := s.CommitEvolution(ctx, evo)
	if err != nil {
		t.Fatal(err)
	}

	// Next event: "good" migrates online, "bad" stays stranded on its
	// old tag with the deviation point intact.
	if _, err := s.IngestEvents(ctx, id, []ingest.Event{
		ev("good", "A#B#deliveryOp"),
		ev("bad", "A#B#deliveryOp"),
	}); err != nil {
		t.Fatal(err)
	}
	states, err = s.InstanceStates(ctx, id, paperrepro.Buyer)
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range states {
		byID[st.ID] = st
	}
	if got := byID["good"]; got.Schema != next.Version || got.Status != instance.Migratable || got.TracePos != 2 {
		t.Fatalf("good post-commit: %+v, want schema %d", got, next.Version)
	}
	if got := byID["bad"]; got.Schema != base.Version || got.Status != instance.NonReplayable || got.Deviation != 1 || got.TracePos != 3 {
		t.Fatalf("bad post-commit: %+v, want stranded at schema %d with deviation 1", got, base.Version)
	}
	if st := s.Stats(); st.OnlineMigrations != 1 {
		t.Fatalf("onlineMigrations = %d, want 1", st.OnlineMigrations)
	}
}

func TestIngestValidation(t *testing.T) {
	s, id := paperStore(t)
	if _, err := s.IngestEvents(ctx, id, nil); !errors.Is(err, ErrInvalid) {
		t.Fatalf("empty batch: %v, want ErrInvalid", err)
	}
	if _, err := s.IngestEvents(ctx, id, []ingest.Event{{Party: paperrepro.Buyer, Label: "B#A#orderOp"}}); !errors.Is(err, ErrInvalid) {
		t.Fatalf("missing instance: %v, want ErrInvalid", err)
	}
	if _, err := s.IngestEvents(ctx, id, []ingest.Event{{Party: "Nobody", Instance: "i", Label: "B#A#orderOp"}}); !errors.Is(err, ErrNotFound) {
		t.Fatalf("unknown party: %v, want ErrNotFound", err)
	}
	if _, err := s.IngestEvents(ctx, "nope", []ingest.Event{{Party: paperrepro.Buyer, Instance: "i", Label: "B#A#orderOp"}}); !errors.Is(err, ErrNotFound) {
		t.Fatalf("unknown choreography: %v, want ErrNotFound", err)
	}
}

// A batch larger than a lane's queue bound is rejected with
// backpressure before anything applies, and the rejection is counted.
func TestIngestBackpressureCounted(t *testing.T) {
	s := New(WithShards(2), WithIngestWorkers(1), WithIngestQueueCap(1))
	const id = "bp"
	if err := s.Create(ctx, id, paperSyncOps); err != nil {
		t.Fatal(err)
	}
	if _, err := s.RegisterParty(ctx, id, paperrepro.BuyerProcess()); err != nil {
		t.Fatal(err)
	}
	batch := []ingest.Event{
		{Party: paperrepro.Buyer, Instance: "i", Label: "B#A#orderOp"},
		{Party: paperrepro.Buyer, Instance: "i", Label: "B#A#getStatusOp"},
	}
	_, err := s.IngestEvents(ctx, id, batch)
	if !errors.Is(err, ingest.ErrBackpressure) {
		t.Fatalf("oversized batch: %v, want backpressure", err)
	}
	var bp *ingest.BackpressureError
	if !errors.As(err, &bp) || bp.RetryAfter <= 0 {
		t.Fatalf("no retry-after hint: %v", err)
	}
	st := s.Stats()
	if st.IngestRejected != 2 || st.EventsIngested != 0 {
		t.Fatalf("stats = {rejected %d, ingested %d}, want {2, 0}", st.IngestRejected, st.EventsIngested)
	}
	if insts, _ := s.Instances(ctx, id, paperrepro.Buyer); len(insts) != 0 {
		t.Fatalf("rejected batch left %d instances", len(insts))
	}
	// A fitting batch still goes through.
	if _, err := s.IngestEvents(ctx, id, batch[:1]); err != nil {
		t.Fatal(err)
	}
}

// Stats counts tracked instances per choreography across both the
// batch path (AddInstances) and the streaming path (created by
// ingestion).
func TestStatsTrackedInstances(t *testing.T) {
	s, id := paperStore(t)
	if _, err := s.SampleInstances(ctx, id, paperrepro.Buyer, 7, 5, 8); err != nil {
		t.Fatal(err)
	}
	if _, err := s.IngestEvents(ctx, id, []ingest.Event{
		{Party: paperrepro.Accounting, Instance: "x", Label: "B#A#orderOp"},
		{Party: paperrepro.Accounting, Instance: "y", Label: "B#A#orderOp"},
	}); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.TrackedInstances != 7 {
		t.Fatalf("trackedInstances = %d, want 7", st.TrackedInstances)
	}
	if got := st.InstancesByChoreography[id]; got != 7 {
		t.Fatalf("instancesByChoreography[%s] = %d, want 7", id, got)
	}
}

// Streaming ingestion, schema commits, bulk migration sweeps and batch
// instance recording race against each other; run under -race in CI.
func TestIngestConcurrentHammer(t *testing.T) {
	s, id := paperStore(t)
	rounds, ingesters := 12, 3
	if testing.Short() {
		rounds, ingesters = 4, 2
	}
	parties := []string{paperrepro.Buyer, paperrepro.Accounting, paperrepro.Logistics}
	streams := make([][]ingest.Event, ingesters)
	for g := range streams {
		party := parties[g%len(parties)]
		insts := sampleTraces(t, s, id, party, int64(900+g), 15, 8)
		for i := range insts {
			insts[i].ID = fmt.Sprintf("h%d-%s", g, insts[i].ID)
		}
		streams[g] = interleave(party, insts)
	}
	var wg sync.WaitGroup
	errc := make(chan error, ingesters+4)
	for g := 0; g < ingesters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			events := streams[g]
			for len(events) > 0 {
				n := 16
				if n > len(events) {
					n = len(events)
				}
				if _, err := s.IngestEvents(ctx, id, events[:n]); err != nil {
					if errors.Is(err, ingest.ErrBackpressure) {
						continue
					}
					errc <- fmt.Errorf("ingester %d: %w", g, err)
					return
				}
				events = events[n:]
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		alt := []change.Operation{
			paperrepro.TrackingLimitChange(),
			change.Replace{Path: nil, New: paperrepro.AccountingProcess().Body},
		}
		for i := 0; i < rounds; i++ {
			evo, err := s.Evolve(ctx, id, paperrepro.Accounting, alt[i%2])
			if err != nil {
				errc <- fmt.Errorf("evolve: %w", err)
				return
			}
			if _, err := s.CommitEvolution(ctx, evo); err != nil && !errors.Is(err, ErrConflict) {
				errc <- fmt.Errorf("commit: %w", err)
				return
			}
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			job, err := s.StartMigration(ctx, id, 2)
			if err != nil {
				errc <- fmt.Errorf("migration: %w", err)
				return
			}
			if _, err := job.Wait(ctx); err != nil {
				errc <- fmt.Errorf("migration wait: %w", err)
				return
			}
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			if _, err := s.SampleInstances(ctx, id, parties[i%len(parties)], int64(i), 10, 6); err != nil {
				errc <- fmt.Errorf("sample: %w", err)
				return
			}
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		// Readers race the writers: InstanceStates replays stored
		// traces outside the shard locks, InstanceRecords renders them
		// as labels, and Stats sums the per-shard counts unlocked.
		for i := 0; i < rounds; i++ {
			for _, party := range parties {
				if _, err := s.InstanceStates(ctx, id, party); err != nil {
					errc <- fmt.Errorf("states: %w", err)
					return
				}
				if _, err := s.InstanceRecords(ctx, id, party); err != nil {
					errc <- fmt.Errorf("records: %w", err)
					return
				}
			}
			s.Stats()
		}
	}()
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	// Settled store: every streamed classification equals the
	// whole-trace verdict under the final schema.
	snap, err := s.Snapshot(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	for _, party := range parties {
		ps, _ := snap.Party(party)
		states, err := s.InstanceStates(ctx, id, party)
		if err != nil {
			t.Fatal(err)
		}
		insts, err := s.Instances(ctx, id, party)
		if err != nil {
			t.Fatal(err)
		}
		byID := map[string]instance.Instance{}
		for _, inst := range insts {
			byID[inst.ID] = inst
		}
		for _, st := range states {
			inst, ok := byID[st.ID]
			if !ok {
				t.Fatalf("%s/%s: streamed state without a record", party, st.ID)
			}
			want, err := instance.Check(inst, ps.Public)
			if err != nil {
				t.Fatal(err)
			}
			if st.Status != want {
				t.Fatalf("%s/%s: streamed status %v, whole-trace %v", party, st.ID, st.Status, want)
			}
		}
	}
}
