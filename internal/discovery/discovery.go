// Package discovery implements the service-discovery application of
// the aFSA machinery named in paper Sec. 6 (refs [18, 20], the
// IPSI-PF matchmaking engine): a registry of public processes that is
// queried with one's own public process, returning the services whose
// conversation protocols are bilaterally consistent with the query.
//
// The package also implements the naive baseline such engines are
// compared against — message-overlap matching (two services "match"
// when each mandatory direction of the conversation shares at least
// one operation) — so TestConsistencyBeatsOverlap can show the
// precision gap that motivates consistency-based matchmaking.
package discovery

import (
	"fmt"
	"sort"

	"repro/internal/afsa"
)

// Entry is one published service.
type Entry struct {
	Name   string
	Public *afsa.Automaton
}

// Registry stores published public processes.
type Registry struct {
	entries []Entry
	byName  map[string]int
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: map[string]int{}}
}

// Publish adds a service.
func (r *Registry) Publish(name string, public *afsa.Automaton) error {
	if name == "" || public == nil {
		return fmt.Errorf("discovery: publish needs a name and an automaton")
	}
	if _, dup := r.byName[name]; dup {
		return fmt.Errorf("discovery: service %q already published", name)
	}
	r.byName[name] = len(r.entries)
	r.entries = append(r.entries, Entry{Name: name, Public: public})
	return nil
}

// Len returns the number of published services.
func (r *Registry) Len() int { return len(r.entries) }

// Names returns the published service names, sorted.
func (r *Registry) Names() []string {
	out := make([]string, 0, len(r.entries))
	for _, e := range r.entries {
		out = append(out, e.Name)
	}
	sort.Strings(out)
	return out
}

// Match is one discovery result.
type Match struct {
	Name string
}

// MatchConsistent returns the services bilaterally consistent with the
// query (non-empty annotated intersection, Sec. 3.2) — the precise
// matchmaking of [18].
func (r *Registry) MatchConsistent(query *afsa.Automaton) ([]Match, error) {
	var out []Match
	for _, e := range r.entries {
		ok, err := afsa.Consistent(query, e.Public)
		if err != nil {
			return nil, fmt.Errorf("discovery: matching %q: %w", e.Name, err)
		}
		if ok {
			out = append(out, Match{Name: e.Name})
		}
	}
	return out, nil
}

// MatchOverlap returns the services whose alphabets overlap with the
// query in both directions of every conversation — the keyword-style
// baseline. It over-approximates: protocol order, mandatory
// alternatives and deadlocks are invisible to it.
func (r *Registry) MatchOverlap(query *afsa.Automaton) []Match {
	qSigma := query.Alphabet()
	var out []Match
	for _, e := range r.entries {
		if len(qSigma.Intersect(e.Public.Alphabet())) > 0 {
			out = append(out, Match{Name: e.Name})
		}
	}
	return out
}

// Evaluation compares the two matchers against ground truth (the set
// of service names that are *actually* safe partners, established by
// the caller, e.g. via exhaustive simulation).
type Evaluation struct {
	Matcher                       string
	TruePositives, FalsePositives int
	FalseNegatives                int
	Precision, Recall             float64
}

// Evaluate computes precision/recall of a result set against ground
// truth.
func Evaluate(matcher string, got []Match, truth map[string]bool) Evaluation {
	ev := Evaluation{Matcher: matcher}
	seen := map[string]bool{}
	for _, m := range got {
		seen[m.Name] = true
		if truth[m.Name] {
			ev.TruePositives++
		} else {
			ev.FalsePositives++
		}
	}
	for name, ok := range truth {
		if ok && !seen[name] {
			ev.FalseNegatives++
		}
	}
	if ev.TruePositives+ev.FalsePositives > 0 {
		ev.Precision = float64(ev.TruePositives) / float64(ev.TruePositives+ev.FalsePositives)
	}
	if ev.TruePositives+ev.FalseNegatives > 0 {
		ev.Recall = float64(ev.TruePositives) / float64(ev.TruePositives+ev.FalseNegatives)
	}
	return ev
}
