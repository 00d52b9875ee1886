package scenario

import (
	"fmt"
	"testing"

	"repro/internal/afsa"
	"repro/internal/bpel"
	"repro/internal/change"
	"repro/internal/instance"
	"repro/internal/label"
	"repro/internal/mapping"
)

// corpus builds the scenarios and checks there are enough of them.
func corpus(t *testing.T) []*Scenario {
	t.Helper()
	scs, err := All()
	if err != nil {
		t.Fatal(err)
	}
	if len(scs) < 5 {
		t.Fatalf("corpus has %d scenarios, want at least 5", len(scs))
	}
	return scs
}

// publics derives every party's public automaton.
func publics(t *testing.T, sc *Scenario) map[string]*afsa.Automaton {
	t.Helper()
	reg, err := mapping.InferRegistry(sc.Parties, sc.SyncOps)
	if err != nil {
		t.Fatalf("%s: inferring registry: %v", sc.Name, err)
	}
	out := make(map[string]*afsa.Automaton, len(sc.Parties))
	for _, p := range sc.Parties {
		res, err := mapping.Derive(p, reg)
		if err != nil {
			t.Fatalf("%s: deriving %s: %v", sc.Name, p.Owner, err)
		}
		out[p.Owner] = res.Automaton
	}
	return out
}

// countKind counts activities of one kind across a process.
func countKind(p *bpel.Process, kind bpel.Kind) int {
	n := 0
	bpel.Walk(p.Body, func(a bpel.Activity, _ bpel.Path) bool {
		if a.Kind() == kind {
			n++
		}
		return true
	})
	return n
}

func TestCorpusShape(t *testing.T) {
	loops, scopes := 0, 0
	for _, sc := range corpus(t) {
		if len(sc.Parties) < 5 {
			t.Errorf("%s: %d parties, want at least 5", sc.Name, len(sc.Parties))
		}
		if len(sc.Episodes) < 3 {
			t.Errorf("%s: %d episodes, want at least 3", sc.Name, len(sc.Episodes))
		}
		deviators := 0
		for _, in := range sc.Instances {
			if sc.Party(in.Party) == nil {
				t.Errorf("%s: instance %s/%s names unknown party", sc.Name, in.Party, in.ID)
			}
			if in.Status == "non-replayable" {
				deviators++
			}
		}
		if deviators == 0 {
			t.Errorf("%s: no scripted deviator instance", sc.Name)
		}
		for _, ep := range sc.Episodes {
			if sc.Party(ep.Party) == nil {
				t.Errorf("%s/%s: unknown originator %q", sc.Name, ep.Name, ep.Party)
			}
			for partner := range ep.Impacts {
				if sc.Party(partner) == nil {
					t.Errorf("%s/%s: impact on unknown partner %q", sc.Name, ep.Name, partner)
				}
			}
			for _, st := range ep.Stranded {
				found := false
				for _, in := range sc.InstancesOf(st.Party) {
					if in.ID == st.ID {
						found = true
					}
				}
				if !found {
					t.Errorf("%s/%s: stranded %s/%s is not a scripted instance", sc.Name, ep.Name, st.Party, st.ID)
				}
			}
		}
		for _, p := range sc.Parties {
			loops += countKind(p, bpel.KindWhile)
			scopes += countKind(p, bpel.KindScope)
		}
	}
	if loops == 0 {
		t.Error("corpus has no loop (While) anywhere")
	}
	if scopes == 0 {
		t.Error("corpus has no cancellation scope (Scope) anywhere")
	}
}

// TestCorpusBaseIsConsistent checks every pairwise conversation of
// every scenario is consistent by construction (annotated intersection
// non-empty, paper Def. 4).
func TestCorpusBaseIsConsistent(t *testing.T) {
	for _, sc := range corpus(t) {
		pub := publics(t, sc)
		for i := 0; i < len(sc.Parties); i++ {
			for j := i + 1; j < len(sc.Parties); j++ {
				a, b := sc.Parties[i].Owner, sc.Parties[j].Owner
				va, vb := pub[a].View(b), pub[b].View(a)
				ok, err := afsa.Consistent(va, vb)
				if err != nil {
					t.Fatalf("%s: consistency %s/%s: %v", sc.Name, a, b, err)
				}
				if !ok {
					t.Errorf("%s: base views of %s and %s are inconsistent", sc.Name, a, b)
				}
			}
		}
	}
}

// TestScriptedTracesMatchStatus replays every scripted trace against
// the owning party's *base* public process and checks the scripted
// status: migratable instances are valid in-flight conversations,
// deviators are off-protocol.
func TestScriptedTracesMatchStatus(t *testing.T) {
	for _, sc := range corpus(t) {
		pub := publics(t, sc)
		checkers := map[string]*instance.Checker{}
		for party, a := range pub {
			c, err := instance.NewChecker(a)
			if err != nil {
				t.Fatalf("%s: checker for %s: %v", sc.Name, party, err)
			}
			checkers[party] = c
		}
		for _, in := range sc.Instances {
			got := checkers[in.Party].Check(instance.Instance{ID: in.ID, Trace: in.Trace}).String()
			if got != in.Status {
				t.Errorf("%s: instance %s/%s: scripted status %q, checker says %q", sc.Name, in.Party, in.ID, in.Status, got)
			}
		}
	}
}

// applyAll decodes and applies a spec transaction to the party's
// current process.
func applyAll(party string, p *bpel.Process, specs []change.Spec) (*bpel.Process, error) {
	ops, err := change.DecodeSpecs(party, specs)
	if err != nil {
		return nil, err
	}
	for _, op := range ops {
		if p, err = op.Apply(p); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// TestEpisodesApplyAndRestoreConsistency applies every episode (and
// its adaptations) offline and checks the op specs decode, apply
// cleanly to the base processes, and — once all adaptations are in —
// leave every pairwise conversation consistent again.
func TestEpisodesApplyAndRestoreConsistency(t *testing.T) {
	for _, sc := range corpus(t) {
		for _, ep := range sc.Episodes {
			t.Run(sc.Name+"/"+ep.Name, func(t *testing.T) {
				evolved := map[string]*bpel.Process{}
				for _, p := range sc.Parties {
					evolved[p.Owner] = p
				}
				p, err := applyAll(ep.Party, evolved[ep.Party], ep.Ops)
				if err != nil {
					t.Fatalf("episode ops: %v", err)
				}
				evolved[ep.Party] = p
				for _, ad := range ep.Adaptations {
					p, err := applyAll(ad.Party, evolved[ad.Party], ad.Ops)
					if err != nil {
						t.Fatalf("adaptation for %s: %v", ad.Party, err)
					}
					evolved[ad.Party] = p
				}
				procs := make([]*bpel.Process, 0, len(sc.Parties))
				var syncOps []string
				for _, base := range sc.Parties {
					procs = append(procs, evolved[base.Owner])
				}
				syncOps = sc.SyncOps
				reg, err := mapping.InferRegistry(procs, syncOps)
				if err != nil {
					t.Fatal(err)
				}
				pub := map[string]*afsa.Automaton{}
				for _, p := range procs {
					res, err := mapping.Derive(p, reg)
					if err != nil {
						t.Fatalf("deriving %s after episode: %v", p.Owner, err)
					}
					pub[p.Owner] = res.Automaton
				}
				for i := 0; i < len(procs); i++ {
					for j := i + 1; j < len(procs); j++ {
						a, b := procs[i].Owner, procs[j].Owner
						ok, err := afsa.Consistent(pub[a].View(b), pub[b].View(a))
						if err != nil {
							t.Fatalf("consistency %s/%s: %v", a, b, err)
						}
						if !ok {
							t.Errorf("views of %s and %s inconsistent after episode and adaptations", a, b)
						}
					}
				}
			})
		}
	}
}

func TestEventsPreservePerInstanceOrder(t *testing.T) {
	for _, sc := range corpus(t) {
		evs := Events(sc.Instances, "-ev")
		perInstance := map[string][]label.Label{}
		for _, ev := range evs {
			perInstance[ev.Party+"/"+ev.Instance] = append(perInstance[ev.Party+"/"+ev.Instance], ev.Label)
		}
		total := 0
		for _, in := range sc.Instances {
			key := in.Party + "/" + in.ID + "-ev"
			got := perInstance[key]
			if len(got) != len(in.Trace) {
				t.Fatalf("%s: %s: %d events, want %d", sc.Name, key, len(got), len(in.Trace))
			}
			for i := range got {
				if got[i] != in.Trace[i] {
					t.Fatalf("%s: %s: event %d is %v, want %v", sc.Name, key, i, got[i], in.Trace[i])
				}
			}
			total += len(in.Trace)
		}
		if len(evs) != total {
			t.Fatalf("%s: %d events, want %d", sc.Name, len(evs), total)
		}
	}
}

// Example documents the corpus for godoc.
func Example() {
	scs, err := All()
	if err != nil {
		panic(err)
	}
	for _, sc := range scs {
		fmt.Println(sc.Name, len(sc.Parties), "parties")
	}
	// Output:
	// auction 5 parties
	// claims 5 parties
	// logistics 6 parties
	// supply-chain 5 parties
	// telco 5 parties
}
