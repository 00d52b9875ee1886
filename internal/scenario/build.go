package scenario

import (
	"repro/internal/bpel"
	"repro/internal/change"
	"repro/internal/label"
)

func mustLabel(s string) label.Label { return label.MustParse(s) }

// The definitions in this file and the per-scenario files are the
// corpus. The helpers keep the process trees terse; consistency rules
// of thumb (all enforced by TestCorpusBaseIsConsistent):
//
//   - every pairwise conversation is an exact dual: each send has a
//     matching receive/pick branch on the partner;
//   - an internal choice (switch) is announced to every partner whose
//     remaining conversation depends on it, with a distinct first
//     message per branch (the paper's accounting/logistics pattern);
//   - loops follow the paper idiom: a While("1 = 1") around a pick
//     whose exit branches Terminate.

// definitions builds the corpus, in name order.
func definitions() []*Scenario {
	return []*Scenario{
		auctionScenario(),
		claimsScenario(),
		logisticsScenario(),
		supplyChainScenario(),
		telcoScenario(),
	}
}

// ---- process tree helpers ----

func seq(name string, kids ...bpel.Activity) *bpel.Sequence {
	return &bpel.Sequence{BlockName: name, Children: kids}
}

func recv(name, partner, op string) *bpel.Receive {
	return &bpel.Receive{BlockName: name, Partner: partner, Op: op}
}

func inv(name, partner, op string) *bpel.Invoke {
	return &bpel.Invoke{BlockName: name, Partner: partner, Op: op}
}

func syncInv(name, partner, op string) *bpel.Invoke {
	return &bpel.Invoke{BlockName: name, Partner: partner, Op: op, Sync: true}
}

func pick(name string, branches ...bpel.OnMessage) *bpel.Pick {
	return &bpel.Pick{BlockName: name, Branches: branches}
}

func on(partner, op string, body bpel.Activity) bpel.OnMessage {
	return bpel.OnMessage{Partner: partner, Op: op, Body: body}
}

func choice(name string, cases []bpel.Case, elseBody bpel.Activity) *bpel.Switch {
	return &bpel.Switch{BlockName: name, Cases: cases, Else: elseBody}
}

func when(cond string, body bpel.Activity) bpel.Case {
	return bpel.Case{Cond: cond, Body: body}
}

func loop(name string, body bpel.Activity) *bpel.While {
	return &bpel.While{BlockName: name, Cond: "1 = 1", Body: body}
}

func scope(name string, body bpel.Activity) *bpel.Scope {
	return &bpel.Scope{BlockName: name, Body: body}
}

func empty(name string) *bpel.Empty         { return &bpel.Empty{BlockName: name} }
func terminate(name string) *bpel.Terminate { return &bpel.Terminate{BlockName: name} }

func proc(name, owner string, body bpel.Activity) *bpel.Process {
	return &bpel.Process{Name: name, Owner: owner, Body: body}
}

// ---- op spec helpers ----

// mustActivityXML marshals an activity fragment; the fragments are
// fixed in the builders, so a malformed one is a bug and panics.
func mustActivityXML(a bpel.Activity) string {
	raw, err := bpel.MarshalActivityXML(a)
	if err != nil {
		panic(err)
	}
	return string(raw)
}

func specReplace(path string, a bpel.Activity) change.Spec {
	return change.Spec{Kind: "replace", Path: path, XML: mustActivityXML(a)}
}

func specInsert(path string, a bpel.Activity, after bool) change.Spec {
	return change.Spec{Kind: "insert", Path: path, XML: mustActivityXML(a), After: after}
}

// ---- instance helpers ----

func migratable(party, id string, trace ...string) Instance {
	return scriptedInstance(party, id, "migratable", trace)
}

func deviator(party, id string, trace ...string) Instance {
	return scriptedInstance(party, id, "non-replayable", trace)
}

func scriptedInstance(party, id, status string, trace []string) Instance {
	in := Instance{Party: party, ID: id, Status: status}
	for _, s := range trace {
		in.Trace = append(in.Trace, mustLabel(s))
	}
	return in
}
