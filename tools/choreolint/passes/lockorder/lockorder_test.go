package lockorder_test

import (
	"testing"

	"repro/tools/choreolint/vetfixture"
)

// TestFixture runs the analyzer over its seeded-violation fixture
// package through `go vet -vettool` and diffs the findings against
// the fixture's want comments: the proof that the analyzer catches
// the invariant breach it encodes.
func TestFixture(t *testing.T) {
	bin, root := vetfixture.Build(t)
	vetfixture.Check(t, bin, root, "lockorder", "lockorder")
}
