// Package snapshotimmut is the seeded-violation fixture for the
// snapshotimmut analyzer: a miniature of the store's publish-then-
// freeze world — a frozen snapshot type, a builder, helpers that write
// through their parameters — with the writes the analyzer must catch
// (direct, aliased, and through a helper call chain) next to the
// construction patterns it must leave alone.
package snapshotimmut

// Snapshot stands in for store.Snapshot: published data, immutable
// after construction.
//
//choreolint:frozen
type Snapshot struct {
	Version uint64
	parties map[string]int
	order   []string
}

// published is a package-level snapshot — never fresh.
var published = &Snapshot{parties: map[string]int{}}

// badDirect writes a package-level snapshot in place.
func badDirect() {
	published.Version++ // want "write to .*snapshotimmut.Snapshot"
}

// badAliased writes through a local alias of shared data.
func badAliased() {
	s := published
	s.parties["x"] = 1 // want "write to .*snapshotimmut.Snapshot"
}

// scribble writes its parameter: no local report, but callers passing
// non-fresh snapshots are flagged.
func scribble(s *Snapshot) {
	s.Version = 0
}

// scribbleDeep reaches the write through one more hop.
func scribbleDeep(s *Snapshot) {
	scribble(s)
}

// badViaHelper leaks shared data into a writer three calls deep.
func badViaHelper() {
	scribbleDeep(published) // want "call to scribbleDeep writes .*snapshotimmut.Snapshot"
}

// goodFresh may write: the snapshot is its own construction.
func goodFresh() *Snapshot {
	s := &Snapshot{parties: map[string]int{}}
	s.Version = 1
	s.parties["x"] = 1
	s.order = append(s.order, "x")
	return s
}

// goodFreshViaCall may write data proven fresh interprocedurally:
// goodFresh's every return is freshly constructed.
func goodFreshViaCall() *Snapshot {
	s := goodFresh()
	s.Version = 2
	scribbleDeep(s) // fresh argument: the helper writes our own data
	return s
}

// rebuild is the sanctioned commit path.
//
//choreolint:builder
func rebuild(cur *Snapshot) *Snapshot {
	next := &Snapshot{Version: cur.Version + 1, parties: map[string]int{}}
	next.order = append([]string(nil), cur.order...)
	return next
}
