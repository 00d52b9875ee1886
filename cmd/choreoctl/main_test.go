package main

import (
	"context"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"syscall"
	"testing"
	"time"

	choreo "repro"
)

func writeFixture(t *testing.T, name, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

const buyerXML = `
<process name="buyer" owner="B">
  <sequence name="buyer process">
    <invoke name="order" partner="A" operation="orderOp"/>
    <receive name="delivery" partner="A" operation="deliveryOp"/>
  </sequence>
</process>`

const accXML = `
<process name="accounting" owner="A">
  <sequence name="acc process">
    <receive name="order" partner="B" operation="orderOp"/>
    <invoke name="delivery" partner="B" operation="deliveryOp"/>
  </sequence>
</process>`

func TestLoadProcess(t *testing.T) {
	path := writeFixture(t, "buyer.xml", buyerXML)
	p, err := loadProcess(path)
	if err != nil {
		t.Fatal(err)
	}
	if p.Owner != "B" || p.Name != "buyer" {
		t.Fatalf("loaded %q/%q", p.Name, p.Owner)
	}
	if _, err := loadProcess(filepath.Join(t.TempDir(), "missing.xml")); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestBuildRegistryInfersOperations(t *testing.T) {
	buyer, err := loadProcess(writeFixture(t, "buyer.xml", buyerXML))
	if err != nil {
		t.Fatal(err)
	}
	acc, err := loadProcess(writeFixture(t, "acc.xml", accXML))
	if err != nil {
		t.Fatal(err)
	}
	reg, err := buildRegistry([]*choreo.Process{buyer, acc}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// orderOp belongs to A (received by A / invoked at A), deliveryOp
	// to B.
	if _, ok := reg.Lookup("A", "orderOp"); !ok {
		t.Fatal("orderOp not registered for A")
	}
	if _, ok := reg.Lookup("B", "deliveryOp"); !ok {
		t.Fatal("deliveryOp not registered for B")
	}
	if reg.Sync("A", "orderOp") {
		t.Fatal("async op registered as sync")
	}
}

func TestBuildRegistrySyncFlag(t *testing.T) {
	src := `
<process name="p" owner="A">
  <invoke name="i" partner="L" operation="statusOp" sync="true"/>
</process>`
	p, err := loadProcess(writeFixture(t, "p.xml", src))
	if err != nil {
		t.Fatal(err)
	}
	reg, err := buildRegistry([]*choreo.Process{p}, []string{"L.statusOp"})
	if err != nil {
		t.Fatal(err)
	}
	if !reg.Sync("L", "statusOp") {
		t.Fatal("sync flag ignored")
	}
	// The process validates against the registry (sync agreement).
	if _, err := choreo.DerivePublic(p, reg); err != nil {
		t.Fatalf("derive with sync registry: %v", err)
	}
}

func TestMultiFlag(t *testing.T) {
	var m multiFlag
	if err := m.Set("a"); err != nil {
		t.Fatal(err)
	}
	if err := m.Set("b"); err != nil {
		t.Fatal(err)
	}
	if m.String() != "a,b" || len(m) != 2 {
		t.Fatalf("multiFlag = %v", m)
	}
}

// TestEndToEndPipeline drives derive + consistency + classification
// through the same helpers the CLI uses.
func TestEndToEndPipeline(t *testing.T) {
	buyer, err := loadProcess(writeFixture(t, "buyer.xml", buyerXML))
	if err != nil {
		t.Fatal(err)
	}
	acc, err := loadProcess(writeFixture(t, "acc.xml", accXML))
	if err != nil {
		t.Fatal(err)
	}
	reg, err := buildRegistry([]*choreo.Process{buyer, acc}, nil)
	if err != nil {
		t.Fatal(err)
	}
	c := choreo.NewChoreography(reg)
	if err := c.AddParty(buyer); err != nil {
		t.Fatal(err)
	}
	if err := c.AddParty(acc); err != nil {
		t.Fatal(err)
	}
	rep, err := c.Check()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Consistent() {
		t.Fatalf("fixture choreography inconsistent:\n%s", rep)
	}
}

// TestCheckAndSimulateFailThroughError: check and simulate report an
// inconsistent choreography as an error, which main turns into exit
// status 1.
func TestCheckAndSimulateFailThroughError(t *testing.T) {
	const accNoDelivery = `
<process name="accounting" owner="A">
  <sequence name="acc process">
    <receive name="order" partner="B" operation="orderOp"/>
  </sequence>
</process>`
	buyer := writeFixture(t, "buyer.xml", buyerXML)
	acc := writeFixture(t, "acc.xml", accXML)
	broken := writeFixture(t, "acc_broken.xml", accNoDelivery)
	for name, run := range map[string]func([]string) error{"check": runCheck, "simulate": runSimulate} {
		if err := run([]string{"-in", buyer, "-in", acc}); err != nil {
			t.Errorf("%s on the consistent pair: %v", name, err)
		}
		if err := run([]string{"-in", buyer, "-in", broken}); err == nil {
			t.Errorf("%s accepted an accounting process that never delivers", name)
		}
	}
}

func TestParseOpSpec(t *testing.T) {
	op, err := parseOpSpec(`{"kind":"setWhileCond","path":"Sequence:p/While:w","cond":"n < 3"}`)
	if err != nil {
		t.Fatal(err)
	}
	if op.Kind != "setWhileCond" || op.Cond != "n < 3" {
		t.Fatalf("parsed op = %+v", op)
	}
	path := writeFixture(t, "op.json", `{"kind":"delete","path":"Sequence:p/Invoke:x"}`)
	op, err = parseOpSpec("@" + path)
	if err != nil {
		t.Fatal(err)
	}
	if op.Kind != "delete" {
		t.Fatalf("file op = %+v", op)
	}
	if _, err := parseOpSpec(`{"path":"no kind"}`); err == nil {
		t.Fatal("kindless op accepted")
	}
	if _, err := parseOpSpec("not json"); err == nil {
		t.Fatal("malformed op accepted")
	}
}

// TestRemoteSubcommands drives register and evolve against an
// in-process choreod: batch registration in one commit, then a
// whole-process evolve transaction with -commit, bounded by -timeout.
func TestRemoteSubcommands(t *testing.T) {
	srv := choreo.NewChoreoServer(choreo.NewChoreographyStore())
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	buyerPath := writeFixture(t, "buyer.xml", buyerXML)
	accPath := writeFixture(t, "acc.xml", accXML)
	if err := runRegister([]string{
		"-addr", ts.URL, "-chor", "demo", "-create", "-timeout", "10s",
		"-in", buyerPath, "-in", accPath,
	}); err != nil {
		t.Fatalf("register: %v", err)
	}
	info, err := choreo.NewChoreoClient(ts.URL, nil).Choreography(context.Background(), "demo")
	if err != nil {
		t.Fatal(err)
	}
	if info.Version != 1 || len(info.Parties) != 2 {
		t.Fatalf("after batch register: version=%d parties=%d, want one commit with 2 parties", info.Version, len(info.Parties))
	}

	// Widen the accounting receive via a whole-process replacement and
	// commit in the same invocation.
	const accV2 = `
<process name="accounting" owner="A">
  <sequence name="acc process">
    <pick name="order formats">
      <onMessage partner="B" operation="orderOp"><empty name="o1"/></onMessage>
      <onMessage partner="B" operation="order2Op"><empty name="o2"/></onMessage>
    </pick>
    <invoke name="delivery" partner="B" operation="deliveryOp"/>
  </sequence>
</process>`
	accV2Path := writeFixture(t, "acc_v2.xml", accV2)
	if err := runEvolve([]string{
		"-addr", ts.URL, "-chor", "demo", "-party", "A", "-timeout", "10s",
		"-new", accV2Path, "-commit",
	}); err != nil {
		t.Fatalf("evolve: %v", err)
	}
	info, err = choreo.NewChoreoClient(ts.URL, nil).Choreography(context.Background(), "demo")
	if err != nil {
		t.Fatal(err)
	}
	if info.Version != 2 {
		t.Fatalf("after evolve -commit: version=%d, want 2", info.Version)
	}
}

// TestMigrateSubcommand drives the bulk-migration subcommand against
// an in-process choreod: record instances, commit a subtractive
// change, sweep, and verify the idempotent job report.
func TestMigrateSubcommand(t *testing.T) {
	srv := choreo.NewChoreoServer(choreo.NewChoreographyStore())
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	ctx := context.Background()

	buyerPath := writeFixture(t, "buyer.xml", buyerXML)
	accPath := writeFixture(t, "acc.xml", accXML)
	if err := runRegister([]string{
		"-addr", ts.URL, "-chor", "demo", "-create",
		"-in", buyerPath, "-in", accPath,
	}); err != nil {
		t.Fatalf("register: %v", err)
	}
	c := choreo.NewChoreoClient(ts.URL, nil)
	if _, err := c.SampleInstances(ctx, "demo", "A", 7, 40, 2); err != nil {
		t.Fatal(err)
	}

	// Accounting drops the delivery invoke — instances that already
	// sent it cannot replay on the shrunk schema.
	const accV3 = `
<process name="accounting" owner="A">
  <sequence name="acc process">
    <receive name="order" partner="B" operation="orderOp"/>
  </sequence>
</process>`
	accV3Path := writeFixture(t, "acc_v3.xml", accV3)
	if err := runEvolve([]string{
		"-addr", ts.URL, "-chor", "demo", "-party", "A",
		"-new", accV3Path, "-commit",
	}); err != nil {
		t.Fatalf("evolve: %v", err)
	}

	if err := runMigrate([]string{
		"-addr", ts.URL, "-chor", "demo", "-workers", "4", "-stranded", "5",
	}); err != nil {
		t.Fatalf("migrate: %v", err)
	}
	jobs, err := c.MigrationJobs(ctx, "demo")
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 1 {
		t.Fatalf("jobs = %d, want 1", len(jobs))
	}
	job := jobs[0]
	if job.Status != "done" || job.Total != 40 {
		t.Fatalf("job = %+v, want done over 40 instances", job)
	}
	if job.Migratable == 0 || job.Migratable == job.Total {
		t.Fatalf("job = %+v, want a split verdict", job)
	}

	// Re-running the subcommand is a no-op against the same version.
	if err := runMigrate([]string{"-addr", ts.URL, "-chor", "demo", "-stranded", "0"}); err != nil {
		t.Fatalf("migrate rerun: %v", err)
	}
	if jobs, err = c.MigrationJobs(ctx, "demo"); err != nil || len(jobs) != 1 {
		t.Fatalf("after rerun: jobs=%d err=%v, want the single completed job", len(jobs), err)
	}
}

// TestIngestSubcommand streams a JSONL event file into an in-process
// choreod — blank lines and comments skipped, the stream sliced into
// batches — and verifies the events landed as live instance state.
func TestIngestSubcommand(t *testing.T) {
	srv := choreo.NewChoreoServer(choreo.NewChoreographyStore())
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	ctx := context.Background()

	buyerPath := writeFixture(t, "buyer.xml", buyerXML)
	accPath := writeFixture(t, "acc.xml", accXML)
	if err := runRegister([]string{
		"-addr", ts.URL, "-chor", "demo", "-create",
		"-in", buyerPath, "-in", accPath,
	}); err != nil {
		t.Fatalf("register: %v", err)
	}

	events := writeFixture(t, "events.jsonl", `
{"party":"A","instance":"c1","label":"B#A#orderOp"}

# a comment between events
{"party":"A","instance":"c2","label":"B#A#orderOp"}
{"party":"A","instance":"c1","label":"A#B#deliveryOp"}
`)
	if err := runIngest([]string{
		"-addr", ts.URL, "-chor", "demo", "-in", events, "-batch", "2", "-timeout", "10s",
	}); err != nil {
		t.Fatalf("ingest: %v", err)
	}
	st, err := choreo.NewChoreoClient(ts.URL, nil).Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.EventsIngested != 3 || st.TrackedInstances != 2 || st.InstancesByChoreography["demo"] != 2 {
		t.Fatalf("stats = {ingested %d, tracked %d, byChor %v}, want 3 events over 2 instances",
			st.EventsIngested, st.TrackedInstances, st.InstancesByChoreography)
	}

	// A malformed line fails loudly rather than skipping silently.
	broken := writeFixture(t, "broken.jsonl", `{"party":"A","instance":"c3"}`)
	if err := runIngest([]string{"-addr", ts.URL, "-chor", "demo", "-in", broken}); err == nil {
		t.Fatal("ingest accepted an event without a label")
	}
}

// TestServeDurableGracefulShutdown boots `serve -data`, mutates state
// over HTTP, delivers SIGTERM and verifies the graceful path: drain,
// checkpoint (snapshot.bin appears), close — and that a fresh store
// opened on the same directory recovers the state.
func TestServeDurableGracefulShutdown(t *testing.T) {
	dir := t.TempDir()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	done := make(chan error, 1)
	go func() { done <- runServe([]string{"-addr", addr, "-data", dir}) }()

	base := "http://" + addr
	c := choreo.NewChoreoClient(base, nil)
	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, err := http.Get(base + "/healthz"); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("choreod did not come up")
		}
		time.Sleep(10 * time.Millisecond)
	}
	ctx := context.Background()
	if err := c.CreateChoreography(ctx, "durable", nil); err != nil {
		t.Fatal(err)
	}
	if _, err := c.RegisterPartyXML(ctx, "durable", buyerXML); err != nil {
		t.Fatal(err)
	}

	// healthz answered after signal.Notify ran, so SIGTERM lands in
	// runServe's handler, not in the default terminate action.
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("serve exited with: %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("serve did not shut down on SIGTERM")
	}
	if _, err := os.Stat(filepath.Join(dir, "snapshot.bin")); err != nil {
		t.Fatalf("shutdown did not checkpoint: %v", err)
	}

	st, err := choreo.OpenChoreographyStore(choreo.WithStoreJournal(dir))
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	defer st.Close()
	snap, err := st.Snapshot(ctx, "durable")
	if err != nil {
		t.Fatalf("recovered store misses the choreography: %v", err)
	}
	if snap.NumParties() != 1 {
		t.Fatalf("recovered %d parties, want 1", snap.NumParties())
	}
}

// TestLoadgenSubcommand runs the load harness end to end through the
// CLI entry point against an in-process choreod: a small budgeted run
// over one corpus scenario, plus mix-spec parsing edge cases.
func TestLoadgenSubcommand(t *testing.T) {
	srv := choreo.NewChoreoServer(choreo.NewChoreographyStore())
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	if err := runLoadgen([]string{
		"-addr", ts.URL, "-duration", "0", "-maxops", "24",
		"-concurrency", "2", "-scenario", "supply-chain", "-seed", "5",
		"-mix", "check=3,evolve=1,commit=1,migrate=1,ingest=2",
	}); err != nil {
		t.Fatalf("loadgen: %v", err)
	}
	chors, err := choreo.NewChoreoClient(ts.URL, nil).Choreographies(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(chors) == 0 {
		t.Fatal("loadgen provisioned no choreographies")
	}
	// No traffic source at all is rejected.
	if err := runLoadgen([]string{"-addr", ts.URL, "-duration", "0"}); err == nil {
		t.Fatal("loadgen accepted neither -duration nor -maxops")
	}
}

func TestParseMix(t *testing.T) {
	m, err := parseMix("check=3, evolve=1,ingest=0")
	if err != nil {
		t.Fatal(err)
	}
	if m.Check != 3 || m.Evolve != 1 || m.Ingest != 0 || m.Commit != 0 {
		t.Fatalf("parsed mix = %+v", m)
	}
	if m, err = parseMix(""); err != nil || m != (choreo.LoadgenMix{}) {
		t.Fatalf("empty mix: %+v, %v", m, err)
	}
	for _, bad := range []string{"check", "check=x", "check=-1", "nap=3"} {
		if _, err := parseMix(bad); err == nil {
			t.Errorf("parseMix(%q) accepted", bad)
		}
	}
}
