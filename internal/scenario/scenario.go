// Package scenario holds the corpus of realistic multi-party
// choreographies the workload layer (corpus replay tests, fuzzing,
// choreoctl loadgen) drives against the store and the server.
//
// Each scenario is built in Go by one builder function (auction.go …
// telco.go), listed in definitions(). A scenario bundles:
//
//   - the party processes (5+ parties, consistent by construction);
//   - scripted running instances with whole or in-flight traces,
//     including deliberate deviators, replayable through AddInstances
//     or the streaming ingest path;
//   - scripted evolution episodes: the change ops one party applies,
//     the expected per-partner classification (paper Defs. 5/6), the
//     partner adaptations that restore consistency for variant
//     changes, and the expected stranded set of a post-commit bulk
//     migration.
//
// docs/scenarios.md describes the corpus and how to add a scenario.
package scenario

import (
	"repro/internal/bpel"
	"repro/internal/change"
	"repro/internal/label"
)

// Impact is the expected classification of an episode for one partner
// whose bilateral view changed (core.Classification strings:
// "neutral"/"additive"/"subtractive"/"additive+subtractive" ×
// "invariant"/"variant").
type Impact struct {
	Kind  string
	Scope string
}

// Adaptation is one partner's scripted private adaptation restoring
// consistency after a variant episode commit.
type Adaptation struct {
	Party string
	Ops   []change.Spec
}

// Operations decodes the adaptation's op specs.
func (a Adaptation) Operations() ([]change.Operation, error) {
	return change.DecodeSpecs(a.Party, a.Ops)
}

// Stranded is one instance expected to be left behind by the bulk
// migration that follows the episode commit (and its adaptations).
type Stranded struct {
	Party string
	ID    string
	// Status is "non-replayable" or "unviable".
	Status string
}

// Episode is one scripted evolution: ops one party applies, with the
// expected analysis outcome and migration fallout.
type Episode struct {
	Name  string
	Party string
	Ops   []change.Spec
	// PublicChanged is the expected evolution outcome for the
	// originator's public process.
	PublicChanged bool
	// Impacts maps each partner whose view is expected to change to
	// its expected classification; partners absent from the map must
	// report an unchanged view.
	Impacts map[string]Impact
	// Adaptations restore consistency after a variant commit, in
	// order.
	Adaptations []Adaptation
	// Stranded is the expected stranded set of a full migration sweep
	// run after the commit and all adaptations, sorted by party then
	// instance ID. Instances not listed must migrate.
	Stranded []Stranded
}

// Operations decodes the episode's op specs for the originating party.
func (e Episode) Operations() ([]change.Operation, error) {
	return change.DecodeSpecs(e.Party, e.Ops)
}

// Instance is one scripted running conversation of one party.
type Instance struct {
	Party string
	ID    string
	// Status is the expected classification against the party's *base*
	// public process ("migratable" or "non-replayable"); deviators
	// carry an off-protocol message in their trace.
	Status string
	Trace  []label.Label
}

// Scenario is one corpus entry.
type Scenario struct {
	Name        string
	Description string
	SyncOps     []string
	// Parties are the private processes in registration order.
	Parties   []*bpel.Process
	Instances []Instance
	Episodes  []Episode
}

// Party returns the named party's process, or nil.
func (sc *Scenario) Party(name string) *bpel.Process {
	for _, p := range sc.Parties {
		if p.Owner == name {
			return p
		}
	}
	return nil
}

// InstancesOf returns the scripted instances of one party.
func (sc *Scenario) InstancesOf(party string) []Instance {
	var out []Instance
	for _, in := range sc.Instances {
		if in.Party == party {
			out = append(out, in)
		}
	}
	return out
}

// Event is one streaming-ingest event derived from a scripted trace.
type Event struct {
	Party    string
	Instance string
	Label    label.Label
}

// Events interleaves the instances' traces round-robin into one
// deterministic event stream, preserving per-instance order — the
// shape the streaming ingest path consumes. The idSuffix is appended
// to every instance ID so ingest replays do not collide with
// instances recorded through AddInstances.
func Events(insts []Instance, idSuffix string) []Event {
	var out []Event
	for i := 0; ; i++ {
		appended := false
		for _, in := range insts {
			if i < len(in.Trace) {
				out = append(out, Event{Party: in.Party, Instance: in.ID + idSuffix, Label: in.Trace[i]})
				appended = true
			}
		}
		if !appended {
			return out
		}
	}
}

// All builds the whole corpus, in name order.
func All() ([]*Scenario, error) {
	return definitions(), nil
}
