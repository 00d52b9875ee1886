package choreo

import "testing"

// TestScenarioCheckAllocs pins the allocations of one paper-scenario
// check: both bilateral views, the intersection and the annotated
// emptiness test per interacting pair. A change that lowers the count
// lowers the pin.
func TestScenarioCheckAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	c, err := PaperScenario()
	if err != nil {
		t.Fatal(err)
	}
	const pinned = 659
	got := testing.AllocsPerRun(50, func() {
		rep, err := c.Check()
		if err != nil || !rep.Consistent() {
			t.Fatalf("paper scenario check inconsistent: %v", err)
		}
	})
	if got > pinned {
		t.Fatalf("PaperScenario().Check() allocates %.0f per run, pinned at %d", got, pinned)
	}
	t.Logf("%.0f allocs per run, pinned at %d", got, pinned)
}
