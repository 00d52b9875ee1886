// Package passes registers the choreolint analyzer suite. Each
// analyzer encodes one repository invariant; docs/lint.md is the
// catalog with the reasoning behind each.
package passes

import (
	"repro/tools/choreolint/analysis"
	"repro/tools/choreolint/analysis/summary"
	"repro/tools/choreolint/passes/lockheldio"
	"repro/tools/choreolint/passes/lockorder"
	"repro/tools/choreolint/passes/snapshotimmut"
)

// All returns the full suite in the order findings are most useful to
// read: lock discipline first, then snapshot immutability.
func All() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		lockorder.Analyzer,
		lockheldio.Analyzer,
		snapshotimmut.Analyzer,
	}
}

// Collectors returns the summary collectors the suite's
// interprocedural passes contribute; drivers run them through
// summary.Compute before the analyzers and export the result over the
// vetx protocol.
func Collectors() []*summary.Collector {
	return []*summary.Collector{
		lockorder.Collector,
		lockheldio.Collector,
		snapshotimmut.Collector,
	}
}
