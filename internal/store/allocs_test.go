package store

import (
	"testing"

	"repro/internal/paperrepro"
)

// pinAllocs fails t when f allocates more than pinned times per run.
// The pins catch what allocgate cannot see, such as map inserts and
// append growth. A change that lowers a count lowers its pin.
func pinAllocs(t *testing.T, what string, pinned float64, f func()) {
	t.Helper()
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	got := testing.AllocsPerRun(50, f)
	if got > pinned {
		t.Fatalf("%s allocates %.0f per run, pinned at %.0f", what, got, pinned)
	}
	t.Logf("%s: %.0f allocs per run, pinned at %.0f", what, got, pinned)
}

// TestEvolveAllocs pins the paper's Fig. 4 analysis of the Sec. 5.2
// cancel change: derivation, classification, planning and suggestions
// for every partner of accounting.
func TestEvolveAllocs(t *testing.T) {
	s, id := paperStore(t)
	op := paperrepro.CancelChange()
	pinAllocs(t, "Store.Evolve of the cancel change", 3430, func() {
		if _, err := s.Evolve(ctx, id, paperrepro.Accounting, op); err != nil {
			t.Fatal(err)
		}
	})
}

// TestCachedCheckAllocs pins a paper-scenario check served from the
// consistency-result cache, the hot path of a read-heavy registry.
func TestCachedCheckAllocs(t *testing.T) {
	s, id := paperStore(t)
	if _, err := s.Check(ctx, id); err != nil { // warm the cache
		t.Fatal(err)
	}
	pinAllocs(t, "cached Store.Check", 2, func() {
		if rep, err := s.Check(ctx, id); err != nil || !rep.Consistent() {
			t.Fatalf("cached check inconsistent: %v", err)
		}
	})
}
