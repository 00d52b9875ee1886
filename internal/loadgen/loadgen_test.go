package loadgen

import (
	"context"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/scenario"
	"repro/internal/server"
	"repro/internal/store"
)

// startServer brings up an in-process choreod.
func startServer(t testing.TB) *httptest.Server {
	st := store.New(store.WithShards(4))
	ts := httptest.NewServer(server.New(st).Handler())
	t.Cleanup(ts.Close)
	return ts
}

// TestLoadgenAgainstInProcessServer drives a small budgeted run with
// every op class enabled and checks the report adds up: the budget is
// honored, every enabled class got traffic, and nothing but the
// scripted conflict-free schedule ran (zero errors).
func TestLoadgenAgainstInProcessServer(t *testing.T) {
	ts := startServer(t)
	maxOps := int64(120)
	if testing.Short() {
		maxOps = 60
	}
	rep, err := Run(context.Background(), Config{
		Addr:        ts.URL,
		Concurrency: 4,
		MaxOps:      maxOps,
		Seed:        7,
		Mix:         Mix{Check: 3, Evolve: 2, Commit: 1, Migrate: 1, Ingest: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.TotalOps != maxOps {
		t.Fatalf("ran %d ops, budget was %d", rep.TotalOps, maxOps)
	}
	if rep.TotalErrors != 0 {
		t.Fatalf("%d ops errored:\n%s", rep.TotalErrors, rep.Table())
	}
	for _, class := range classNames {
		cs, ok := rep.Classes[class]
		if !ok || cs.Ops == 0 {
			t.Errorf("class %s got no traffic", class)
			continue
		}
		if cs.P50 <= 0 || cs.P99 < cs.P50 {
			t.Errorf("class %s: implausible quantiles p50=%v p99=%v", class, cs.P50, cs.P99)
		}
	}
	if rep.Table() == "" {
		t.Fatal("empty report table")
	}
}

// TestLoadgenReRunReusesChoreographies checks a second run against the
// same server (same prefix) provisions nothing new and still succeeds.
func TestLoadgenReRunReusesChoreographies(t *testing.T) {
	ts := startServer(t)
	cfg := Config{Addr: ts.URL, Concurrency: 2, MaxOps: 20, Seed: 3}
	if _, err := Run(context.Background(), cfg); err != nil {
		t.Fatal(err)
	}
	rep, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatalf("rerun: %v", err)
	}
	if rep.TotalErrors != 0 {
		t.Fatalf("rerun errors:\n%s", rep.Table())
	}
}

// TestLoadgenSoak is the duration-bounded soak (skipped in -short):
// sustained mixed traffic for a wall-clock slice, no errors.
func TestLoadgenSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak skipped in -short")
	}
	ts := startServer(t)
	rep, err := Run(context.Background(), Config{
		Addr:        ts.URL,
		Concurrency: 4,
		Duration:    2 * time.Second,
		Seed:        11,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.TotalOps == 0 {
		t.Fatal("soak ran no ops")
	}
	if rep.TotalErrors != 0 {
		t.Fatalf("soak errors:\n%s", rep.Table())
	}
}

func TestLoadgenConfigValidation(t *testing.T) {
	if _, err := Run(context.Background(), Config{Addr: "http://x", Seed: 1}); err == nil {
		t.Fatal("no duration and no op budget accepted")
	}
	if _, err := Run(context.Background(), Config{MaxOps: 1}); err == nil {
		t.Fatal("missing address accepted")
	}
}

// TestLoadgenFaults runs the self-hosted fault mode: journal faults
// must actually fire, the post-run crash-recovery check must pass, and
// injected failures must show up in the per-class code breakdown
// rather than vanish.
func TestLoadgenFaults(t *testing.T) {
	maxOps := int64(160)
	if testing.Short() {
		maxOps = 80
	}
	corpus, err := scenario.All()
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(context.Background(), Config{
		Faults:      0.1,
		Concurrency: 4,
		MaxOps:      maxOps,
		Seed:        11,
		Scenarios:   []string{corpus[0].Name},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.FaultsInjected == 0 {
		t.Fatal("fault run injected nothing")
	}
	if rep.TotalErrors > 0 {
		var bucketed int64
		for _, cs := range rep.Classes {
			for _, n := range cs.Codes {
				bucketed += n
			}
		}
		if bucketed != rep.TotalErrors {
			t.Fatalf("code breakdown covers %d of %d errors", bucketed, rep.TotalErrors)
		}
	}
	t.Logf("faults=%d errors=%d\n%s", rep.FaultsInjected, rep.TotalErrors, rep.Table())
}

// TestLoadgenFaultsValidation pins the fault-mode config contract.
func TestLoadgenFaultsValidation(t *testing.T) {
	if _, err := Run(context.Background(), Config{Faults: 1.5, MaxOps: 1}); err == nil {
		t.Fatal("fault rate >= 1 accepted")
	}
	if _, err := Run(context.Background(), Config{Faults: 0.1, Addr: "http://x", MaxOps: 1}); err == nil {
		t.Fatal("fault mode with an external address accepted")
	}
}
