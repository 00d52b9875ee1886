// Package frozenlib is the dependency half of the cross-package facts
// fixture: it declares the frozen type, a writer helper, and a fresh
// constructor. None of its facts matter locally — the point is that
// they travel to the importing package through the vetx summary file,
// so this fixture is only meaningful when driven by `go vet` (see
// TestVettoolProtocol in the choreolint main package).
package frozenlib

// Table stands in for published immutable data.
//
//choreolint:frozen
type Table struct {
	Rows map[string]int
}

// published is the package's shared instance — never fresh.
var published = &Table{Rows: map[string]int{}}

// Shared returns the published table; its summary must NOT carry
// returnsFresh.
func Shared() *Table { return published }

// Fresh returns a newly built table; its summary must carry
// returnsFresh.
func Fresh() *Table { return &Table{Rows: map[string]int{}} }

// Set writes through its first parameter; its summary carries the
// write-set fact importers use to flag non-fresh arguments.
func Set(t *Table, k string, v int) { t.Rows[k] = v }
