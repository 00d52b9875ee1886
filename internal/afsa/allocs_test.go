package afsa

import (
	"cmp"
	"fmt"
	"slices"
	"testing"
)

// The kernels below run once per replayed event, per candidate state
// set or per minimized state, so each is pinned at zero allocations.
// Their inputs use state and symbol numbers past 255: the runtime
// boxes smaller integers into an interface without allocating, which
// would hide a boxing regression.

// pinNoAllocs fails t when f allocates at all.
func pinNoAllocs(t *testing.T, what string, f func()) {
	t.Helper()
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	if got := testing.AllocsPerRun(50, f); got > 0 {
		t.Fatalf("%s allocates %.0f per run, pinned at 0", what, got)
	}
}

// TestStepSymAllocs pins Stepper.StepSym on each of its branches: a
// valid step, q == None and a symbol past the table width.
func TestStepSymAllocs(t *testing.T) {
	const n = 300
	word := make([]string, n)
	for i := range word {
		word[i] = fmt.Sprintf("A#B#op%d", i)
	}
	st := NewStepper(chain("chain", word...))
	q := StateID(n - 1)
	sym, ok := st.Symbol(lbl(word[n-1]))
	if !ok {
		t.Fatal("chain label not interned")
	}
	pinNoAllocs(t, "Stepper.StepSym", func() {
		if st.StepSym(q, sym) != q+1 || st.StepSym(None, sym) != None || st.StepSym(q, sym+n) != None {
			t.Fatal("StepSym stepped wrong")
		}
	})
}

// TestHashIDsAllocs pins determinization's subset hash.
func TestHashIDsAllocs(t *testing.T) {
	ids := []StateID{256, 300, 511, 4096, 70000, 1 << 20, 1 << 30}
	want := hashIDs(ids)
	pinNoAllocs(t, "hashIDs", func() {
		if hashIDs(ids) != want {
			t.Fatal("hashIDs is not deterministic")
		}
	})
}

// TestSortEdgesBySymAllocs pins minimization's per-state edge sort on
// an unsorted list, so every run takes the swap branch.
func TestSortEdgesBySymAllocs(t *testing.T) {
	unsorted := []edge{{sym: 900, to: 1}, {sym: 300, to: 2}, {sym: 700, to: 3}, {sym: 256, to: 4}, {sym: 300, to: 5}}
	es := make([]edge, len(unsorted))
	pinNoAllocs(t, "sortEdgesBySym", func() {
		copy(es, unsorted)
		sortEdgesBySym(es)
		if !slices.IsSortedFunc(es, func(a, b edge) int { return cmp.Compare(a.sym, b.sym) }) {
			t.Fatal("sortEdgesBySym left the edges unsorted")
		}
	})
}
