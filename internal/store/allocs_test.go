package store

import (
	"fmt"
	"testing"

	"repro/internal/afsa"
	"repro/internal/instance"
	"repro/internal/label"
	"repro/internal/paperrepro"
)

// pinAllocs fails t when f allocates more than pinned times per run.
// A change that lowers a count lowers its pin.
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

// TestAdvanceAllocs pins ingest's per-event step at zero allocations
// on each of its branches: a known symbol that steps and takes the
// online-migration advance, an unknown symbol that deviates, and an
// event on an already-deviated instance.
func TestAdvanceAllocs(t *testing.T) {
	s, id := paperStore(t)
	snap, err := s.Snapshot(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	ps, _ := snap.Party(paperrepro.Buyer)
	chk, err := ps.complianceChecker()
	if err != nil {
		t.Fatal(err)
	}
	order, ok := snap.syms.Lookup(label.MustParse("B#A#orderOp"))
	if !ok {
		t.Fatal("B#A#orderOp not interned")
	}
	fresh := pendingInst{schema: 1, live: instLive{pv: ps.Version, chk: chk, state: chk.Start(), dev: -1}}
	var p pendingInst
	pinAllocs(t, "pendingInst.advance", 0, func() {
		p = fresh
		p.advance(order, 0, 2)
		if p.live.dev >= 0 || p.tagTo != 2 {
			t.Fatalf("known symbol: dev %d, tagTo %d; want a step and an advance to 2", p.live.dev, p.tagTo)
		}
		p.advance(symUnknown, 1, 2)
		p.advance(order, 2, 2)
		if p.live.dev != 1 {
			t.Fatalf("deviation at %d, want 1", p.live.dev)
		}
	})
}

// TestReplayTraceAllocs pins the per-record replay of every sweep and
// live-state rebuild at zero allocations, on a 300-message chain whose
// symbols run past 255 (smaller integers box without allocating): a
// trace that replays to the end through a foreign label the checker
// knows, and one whose foreign label it does not know.
func TestReplayTraceAllocs(t *testing.T) {
	const n = 300
	in := label.NewInterner()
	a := afsa.NewShared("chain", in)
	q := a.AddState()
	trace := make([]label.Symbol, n)
	for i := range trace {
		next := a.AddState()
		l := label.New("A", "B", fmt.Sprintf("op%d", i))
		a.AddTransition(q, l, next)
		trace[i], _ = in.Lookup(l)
		q = next
	}
	a.SetFinal(q, true)
	chk, err := instance.NewChecker(a)
	if err != nil {
		t.Fatal(err)
	}
	if trace[n-2] < 256 {
		t.Fatalf("symbol %d, want one past 255", trace[n-2])
	}
	// The last message is stored as foreign text: the label was unknown
	// when recorded, and a later commit interned it.
	trace[n-1] = foreignSym(0)
	known := []label.Label{label.New("A", "B", fmt.Sprintf("op%d", n-1))}
	unknown := []label.Label{label.New("A", "B", "madeUpOp")}
	pinAllocs(t, "replayTrace", 0, func() {
		if q, dev := replayTrace(chk, trace, known); dev != -1 || chk.StatusAt(q) != instance.Migratable {
			t.Fatalf("replay stopped at %d in state %d, want the whole trace to a final state", dev, q)
		}
		if q, dev := replayTrace(chk, trace, unknown); dev != n-1 || q != afsa.None {
			t.Fatalf("replay deviated at %d, want %d", dev, n-1)
		}
	})
}
