package main

import (
	"fmt"

	"repro/internal/bpel"
	"repro/internal/change"
	"repro/internal/scenario"
	"repro/internal/server"
)

// kit is the scenario corpus prepared for the workloads: party XML as
// sent on the wire, episode and adaptation ops in wire form, and the
// population replicas.
type kit struct {
	scenarios []*corpusScenario
	episodes  []*corpusEpisode // every episode of every scenario
}

type corpusScenario struct {
	sc *scenario.Scenario
	// xml holds each party's marshaled private process, in
	// registration order.
	xml      []string
	episodes []*corpusEpisode
}

// corpusEpisode is a scripted episode with its ops, and each partner
// adaptation's ops, in wire form.
type corpusEpisode struct {
	cs    *corpusScenario
	ep    scenario.Episode
	wire  []server.OpJSON
	adapt []corpusAdaptation
}

type corpusAdaptation struct {
	party string
	wire  []server.OpJSON
}

func loadKit() (*kit, error) {
	scs, err := scenario.All()
	if err != nil {
		return nil, err
	}
	k := &kit{}
	for _, sc := range scs {
		cs := &corpusScenario{sc: sc}
		for _, p := range sc.Parties {
			data, err := bpel.MarshalXML(p)
			if err != nil {
				return nil, err
			}
			cs.xml = append(cs.xml, string(data))
		}
		for _, ep := range sc.Episodes {
			ce := &corpusEpisode{cs: cs, ep: ep, wire: wireOps(ep.Ops)}
			for _, ad := range ep.Adaptations {
				ce.adapt = append(ce.adapt, corpusAdaptation{party: ad.Party, wire: wireOps(ad.Ops)})
			}
			cs.episodes = append(cs.episodes, ce)
			k.episodes = append(k.episodes, ce)
		}
		k.scenarios = append(k.scenarios, cs)
	}
	return k, nil
}

func wireOps(specs []change.Spec) []server.OpJSON {
	out := make([]server.OpJSON, len(specs))
	for i, sp := range specs {
		out[i] = server.OpJSON(sp)
	}
	return out
}

// replicaID names replica r of a scripted instance.
func replicaID(id string, r int) string { return fmt.Sprintf("%s~r%d", id, r) }

// replicas returns factor copies of each scripted instance of party,
// as wire instances.
func (cs *corpusScenario) replicas(party string, factor int) []server.InstanceJSON {
	var out []server.InstanceJSON
	for _, in := range cs.sc.InstancesOf(party) {
		trace := make([]string, len(in.Trace))
		for i, l := range in.Trace {
			trace[i] = string(l)
		}
		for r := 0; r < factor; r++ {
			out = append(out, server.InstanceJSON{ID: replicaID(in.ID, r), Trace: trace})
		}
	}
	return out
}
