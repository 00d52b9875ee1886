// Package instance implements the instance-migration extension the
// paper defers to future work (Sec. 8: "For long-running
// choreographies, in addition, change propagation to already running
// instances is highly desirable", referring to the ADEPT compliance
// criterion [10, 11, 12]).
//
// A running instance is represented by its execution trace — the
// message sequence observed so far. The ADEPT-style compliance
// criterion carries over to public processes directly: an instance can
// migrate to the changed public process iff its trace can be replayed
// on the new automaton and the reached state is viable (the remaining
// conversation can still complete under the mandatory annotations).
//
// The package offers the criterion at two granularities:
//
//   - Check classifies one instance against one candidate schema. It
//     is the ad-hoc entry point: it determinizes the candidate and
//     computes its viable-state set on every call.
//   - Checker front-loads that per-schema work once (NewChecker) and
//     then classifies any number of instances with a plain trace
//     replay — O(len(trace)) per instance, no allocation. Bulk sweeps
//     (Migrate here, the internal/migrate engine, the store's
//     MigrateAll) share one Checker per schema version, so a
//     10k-instance sweep pays for one determinization, not 10k.
//
// Checker is immutable after construction and safe for concurrent use
// from any number of goroutines, which is what makes the worker-pool
// sweep in internal/migrate embarrassingly parallel.
package instance

import (
	"fmt"
	"math/rand"

	"repro/internal/afsa"
	"repro/internal/label"
)

// Instance is one running conversation.
type Instance struct {
	ID    string
	Trace []label.Label
}

// Status classifies an instance against a new schema version.
type Status int

// Migration statuses.
const (
	// Migratable: the trace replays and the reached state is viable.
	Migratable Status = iota
	// NonReplayable: the trace is not a prefix of the new behavior.
	NonReplayable
	// Unviable: the trace replays but the reached state cannot
	// complete anymore (a mandatory alternative disappeared).
	Unviable
)

func (s Status) String() string {
	switch s {
	case Migratable:
		return "migratable"
	case NonReplayable:
		return "non-replayable"
	case Unviable:
		return "unviable"
	default:
		return fmt.Sprintf("Status(%d)", int(s))
	}
}

// Checker classifies instances against one candidate schema. It holds
// the determinized automaton, a dense step table over its interned
// alphabet (afsa.Stepper) and its viable-state set, all computed once
// in NewChecker; Check is then a lock-free, allocation-free trace
// replay, safe for concurrent use.
type Checker struct {
	step   *afsa.Stepper
	viable []bool
}

// NewChecker prepares the compliance check against newPublic:
// determinize once, build the step table once, compute the viable
// states once.
func NewChecker(newPublic *afsa.Automaton) (*Checker, error) {
	d := newPublic.Determinize()
	viable, err := d.ViableStates()
	if err != nil {
		return nil, err
	}
	return &Checker{step: afsa.NewStepper(d), viable: viable}, nil
}

// Check classifies one instance: replay the trace on the determinized
// candidate and test viability of the reached state.
func (c *Checker) Check(inst Instance) Status {
	q := c.Start()
	for _, l := range inst.Trace {
		q = c.Step(q, l)
		if q == afsa.None {
			return NonReplayable
		}
	}
	return c.StatusAt(q)
}

// Incremental interface: streaming callers (the store's event-ingestion
// path) keep one StateID per running instance and advance it message by
// message instead of replaying the whole trace. The incremental answers
// agree with Check by construction: Check is written in terms of them.

// Start returns the replay start state (afsa.None when the candidate
// has no start state, in which case nothing replays).
func (c *Checker) Start() afsa.StateID { return c.step.Start() }

// Step advances one replay state by one observed message; afsa.None
// means the extended trace is not a prefix of the candidate behavior.
func (c *Checker) Step(q afsa.StateID, l label.Label) afsa.StateID {
	return c.step.Step(q, l)
}

// StepSym is Step for a pre-interned symbol — the allocation- and
// hash-free hot path. Symbols must come from the interner the candidate
// automaton was built on (the choreography's shared interner).
func (c *Checker) StepSym(q afsa.StateID, sym label.Symbol) afsa.StateID {
	return c.step.StepSym(q, sym)
}

// Symbol resolves a label through the checker's construction-time
// interner snapshot.
func (c *Checker) Symbol(l label.Label) (label.Symbol, bool) {
	return c.step.Symbol(l)
}

// StatusAt classifies a replay state: NonReplayable for afsa.None (the
// replay already failed), otherwise viable ⇒ Migratable, else Unviable.
func (c *Checker) StatusAt(q afsa.StateID) Status {
	if q == afsa.None || int(q) >= len(c.viable) {
		return NonReplayable
	}
	if !c.viable[q] {
		return Unviable
	}
	return Migratable
}

// Check classifies one instance against the new public process. It
// builds a throwaway Checker; classify batches through NewChecker
// instead.
func Check(inst Instance, newPublic *afsa.Automaton) (Status, error) {
	c, err := NewChecker(newPublic)
	if err != nil {
		return NonReplayable, err
	}
	return c.Check(inst), nil
}

// Report summarizes a migration of many instances.
type Report struct {
	Total         int
	Migratable    int
	NonReplayable int
	Unviable      int
	// Blocked lists the IDs that cannot migrate.
	Blocked []string
}

// MigratableFraction returns the fraction of instances that migrate.
func (r *Report) MigratableFraction() float64 {
	if r.Total == 0 {
		return 0
	}
	return float64(r.Migratable) / float64(r.Total)
}

// MigrateWith classifies every instance through an existing Checker —
// the entry point for callers that memoize the per-schema work (the
// store keeps one Checker per party version).
func MigrateWith(instances []Instance, c *Checker) *Report {
	rep := &Report{Total: len(instances)}
	for _, inst := range instances {
		switch c.Check(inst) {
		case Migratable:
			rep.Migratable++
		case NonReplayable:
			rep.NonReplayable++
			rep.Blocked = append(rep.Blocked, inst.ID)
		case Unviable:
			rep.Unviable++
			rep.Blocked = append(rep.Blocked, inst.ID)
		}
	}
	return rep
}

// SampleInstances draws n running instances of the old public process
// by seeded random walks of up to maxLen steps — the synthetic stand-in
// for a production instance database.
func SampleInstances(oldPublic *afsa.Automaton, seed int64, n, maxLen int) []Instance {
	d := oldPublic.Determinize()
	r := rand.New(rand.NewSource(seed))
	out := make([]Instance, 0, n)
	for i := 0; i < n; i++ {
		q := d.Start()
		var trace []label.Label
		steps := r.Intn(maxLen + 1)
		for s := 0; s < steps; s++ {
			ts := d.Transitions(q)
			if len(ts) == 0 {
				break
			}
			t := ts[r.Intn(len(ts))]
			trace = append(trace, t.Label)
			q = t.To
		}
		out = append(out, Instance{ID: fmt.Sprintf("inst-%d", i), Trace: trace})
	}
	return out
}
