// Package use is the consumer half of the cross-package facts
// fixture: every frozen marker, write-set fact, and returnsFresh bit
// it depends on lives in frozenlib and reaches this package only
// through the vetx summary channel, so the want comments below only
// hold when TestVettoolProtocol drives both packages through `go vet`.
package use

import "repro/tools/choreolint/testdata/src/xpkg/frozenlib"

// BadDirect writes the imported frozen type in place — caught only if
// frozenlib's frozen marker crossed the package boundary.
func BadDirect() {
	frozenlib.Shared().Rows["k"] = 1 // want "write to .*frozenlib.Table"
}

// BadShared hands the published table to the imported writer — caught
// only if frozenlib's write-set fact for Set crossed the package
// boundary.
func BadShared() {
	frozenlib.Set(frozenlib.Shared(), "k", 1) // want "call to Set writes .*frozenlib.Table"
}

// GoodFresh writes a table proven fresh by frozenlib's returnsFresh
// fact for Fresh — flagged only if that fact failed to cross.
func GoodFresh() *frozenlib.Table {
	t := frozenlib.Fresh()
	frozenlib.Set(t, "k", 1)
	return t
}
