// Package runtime executes a choreography: the public processes of
// all parties run jointly under the paper's synchronous communication
// model (Sec. 3.2 motivates aFSAs with HTTP-style synchronous
// message exchange). It is the empirical substrate replacing the
// authors' prototype: the tests use it to validate that bilateral
// consistency really predicts deadlock-free execution (the paper's
// central claim, "the non-emptiness of the intersection of two
// automata guarantees for the absence of deadlock"), and
// TestControlledEvolutionPreventsDeadlock uses it for the
// controlled-vs-uncontrolled evolution experiment.
//
// # Execution model
//
// Every party occupies one state of its (ε-free, deterministic)
// public process. A step is a rendezvous: a *sender* party picks one
// of its outgoing send labels — modeling its internal, data-driven
// decision — and the receiver must be able to take a transition with
// the same label. Two failure modes exist:
//
//   - communication failure: the chosen message cannot be received
//     (the modified choreography "could fail" of Sec. 3.1);
//   - stuck state: no party can move and not every party is final.
//
// Explore enumerates the full global state space and reports every
// failure; RandomWalk performs seeded random executions.
package runtime

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"repro/internal/afsa"
	"repro/internal/label"
)

// System is a set of parties ready for joint execution.
type System struct {
	names  []string
	autos  []*afsa.Automaton // ε-free, deterministic
	starts []afsa.StateID

	// StrictCompletion requires every party to reach a final state.
	// By default a party still in its start state counts as
	// vacuously complete: a conversation that never engages a party
	// is not a deadlock. (The paper's own Sec. 5.2 scenario relies on
	// this — a cancelled order never involves the logistics
	// department, yet all bilateral protocols stay consistent.)
	StrictCompletion bool
}

// NewSystem builds a system from the public processes of the parties.
// Every label must connect two registered parties.
func NewSystem(parties map[string]*afsa.Automaton) (*System, error) {
	if len(parties) < 2 {
		return nil, fmt.Errorf("runtime: need at least two parties, got %d", len(parties))
	}
	s := &System{}
	for name := range parties {
		s.names = append(s.names, name)
	}
	sort.Strings(s.names)
	index := map[string]int{}
	for i, n := range s.names {
		index[n] = i
	}
	for _, n := range s.names {
		a := parties[n]
		if a == nil {
			return nil, fmt.Errorf("runtime: party %q has no automaton", n)
		}
		d := a.Determinize()
		d.Name = a.Name
		for l := range d.Alphabet() {
			if _, ok := index[l.Sender()]; !ok {
				return nil, fmt.Errorf("runtime: label %s of party %q references unknown party %q", l, n, l.Sender())
			}
			if _, ok := index[l.Receiver()]; !ok {
				return nil, fmt.Errorf("runtime: label %s of party %q references unknown party %q", l, n, l.Receiver())
			}
		}
		s.autos = append(s.autos, d)
		s.starts = append(s.starts, d.Start())
	}
	return s, nil
}

// Parties returns the party names in canonical order.
func (s *System) Parties() []string { return append([]string(nil), s.names...) }

func (s *System) party(name string) int {
	for i, n := range s.names {
		if n == name {
			return i
		}
	}
	return -1
}

// GlobalState is one configuration of the joint execution.
type GlobalState []afsa.StateID

func (g GlobalState) key() string {
	var b strings.Builder
	for i, q := range g {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%d", q)
	}
	return b.String()
}

func (s *System) initial() GlobalState {
	return append(GlobalState(nil), s.starts...)
}

// allFinal reports whether the global state counts as complete: every
// party is in a final state, or (unless StrictCompletion) never left
// its start state.
func (s *System) allFinal(g GlobalState) bool {
	for i, a := range s.autos {
		if a.IsFinal(g[i]) {
			continue
		}
		if !s.StrictCompletion && g[i] == s.starts[i] {
			continue
		}
		return false
	}
	return true
}

// move is one attempted rendezvous.
type move struct {
	label label.Label
	next  GlobalState
	ok    bool // receiver could accept
}

// moves enumerates every send option of every party at g, marking
// whether the receiver can currently accept it.
func (s *System) moves(g GlobalState) []move {
	var out []move
	for i, a := range s.autos {
		name := s.names[i]
		for _, t := range a.Transitions(g[i]) {
			if t.Label.Sender() != name {
				continue // the receiver is reactive
			}
			ri := s.party(t.Label.Receiver())
			m := move{label: t.Label}
			// The automata are deterministic: at most one target.
			if targets := s.autos[ri].Step(g[ri], t.Label); len(targets) > 0 {
				next := append(GlobalState(nil), g...)
				next[i] = t.To
				next[ri] = targets[0]
				m.next = next
				m.ok = true
			}
			out = append(out, m)
		}
	}
	return out
}

// FailureKind distinguishes the two ways a run can fail.
type FailureKind int

// Failure kinds.
const (
	// FailureUnreceivable: a sender committed to a message the
	// receiver cannot accept.
	FailureUnreceivable FailureKind = iota
	// FailureStuck: nobody can move but the conversation is not
	// complete.
	FailureStuck
)

func (k FailureKind) String() string {
	if k == FailureUnreceivable {
		return "unreceivable message"
	}
	return "stuck"
}

// Failure is one reachable execution failure.
type Failure struct {
	Kind  FailureKind
	Trace []label.Label
	// Label is the unreceivable message (FailureUnreceivable only).
	Label label.Label
}

func (f Failure) String() string {
	w := afsa.Word(f.Trace)
	if f.Kind == FailureUnreceivable {
		return fmt.Sprintf("after %s: %s cannot be received", w, f.Label)
	}
	return fmt.Sprintf("after %s: stuck", w)
}

// Result is the outcome of exhaustive exploration.
type Result struct {
	// States is the number of distinct global states visited.
	States int
	// Completions is the number of distinct completed states.
	Completions int
	// Failures are the reachable failures (witness traces included),
	// capped at the explore limit.
	Failures []Failure
	// Truncated reports that the exploration hit its state limit.
	Truncated bool
}

// DeadlockFree reports whether no failure is reachable.
func (r *Result) DeadlockFree() bool { return len(r.Failures) == 0 }

// Explore enumerates the reachable global state space (bounded by
// limit states; 0 means 1<<20) and records every reachable failure.
func (s *System) Explore(limit int) *Result {
	if limit <= 0 {
		limit = 1 << 20
	}
	res := &Result{}
	type item struct {
		g     GlobalState
		trace []label.Label
	}
	seen := map[string]bool{}
	start := s.initial()
	seen[start.key()] = true
	queue := []item{{g: start}}
	for len(queue) > 0 {
		if res.States >= limit {
			res.Truncated = true
			break
		}
		cur := queue[0]
		queue = queue[1:]
		res.States++
		ms := s.moves(cur.g)
		anyMove := false
		for _, m := range ms {
			if !m.ok {
				res.Failures = append(res.Failures, Failure{
					Kind:  FailureUnreceivable,
					Trace: cur.trace,
					Label: m.label,
				})
				continue
			}
			anyMove = true
			k := m.next.key()
			if !seen[k] {
				seen[k] = true
				trace := make([]label.Label, len(cur.trace)+1)
				copy(trace, cur.trace)
				trace[len(cur.trace)] = m.label
				queue = append(queue, item{g: m.next, trace: trace})
			}
		}
		if !anyMove {
			if s.allFinal(cur.g) {
				res.Completions++
			} else if len(ms) == 0 {
				res.Failures = append(res.Failures, Failure{Kind: FailureStuck, Trace: cur.trace})
			}
		}
	}
	return res
}

// WalkResult is the outcome of one random execution.
type WalkResult struct {
	Completed bool
	Failure   *Failure
	Trace     []label.Label
	Steps     int
}

// RandomWalk executes one run with a seeded scheduler: at each step a
// random ready sender and a random of its options are chosen (the
// option choice is free — internal decisions do not consult the
// receiver). maxSteps bounds non-terminating conversations; hitting
// the bound counts as completed-so-far (no failure).
func (s *System) RandomWalk(seed int64, maxSteps int) *WalkResult {
	r := rand.New(rand.NewSource(seed))
	g := s.initial()
	res := &WalkResult{}
	for res.Steps < maxSteps {
		ms := s.moves(g)
		if len(ms) == 0 {
			if s.allFinal(g) {
				res.Completed = true
			} else {
				res.Failure = &Failure{Kind: FailureStuck, Trace: res.Trace}
			}
			return res
		}
		m := ms[r.Intn(len(ms))]
		if !m.ok {
			res.Failure = &Failure{Kind: FailureUnreceivable, Trace: res.Trace, Label: m.label}
			return res
		}
		g = m.next
		res.Trace = append(res.Trace, m.label)
		res.Steps++
	}
	res.Completed = true // ran out of budget without failing
	return res
}

// FailureRate runs n seeded random walks and returns the fraction that
// fail — the measurement behind the controlled-vs-uncontrolled
// evolution experiment.
func (s *System) FailureRate(seed int64, n, maxSteps int) float64 {
	failures := 0
	for i := 0; i < n; i++ {
		if w := s.RandomWalk(seed+int64(i), maxSteps); w.Failure != nil {
			failures++
		}
	}
	return float64(failures) / float64(n)
}
