package choreo_test

import (
	"context"
	"fmt"
	"log"
	"net/http/httptest"

	choreo "repro"
)

// Example reproduces the smallest end-to-end flow: build a two-party
// choreography, check consistency, evolve one side and inspect the
// classification.
func Example() {
	reg := choreo.NewRegistry()
	if err := reg.AddOperation("A", "pingOp", false); err != nil {
		log.Fatal(err)
	}
	if err := reg.AddOperation("B", "pongOp", false); err != nil {
		log.Fatal(err)
	}

	server := &choreo.Process{Name: "server", Owner: "A",
		Body: &choreo.Sequence{BlockName: "srv", Children: []choreo.Activity{
			&choreo.Receive{BlockName: "ping", Partner: "B", Op: "pingOp"},
			&choreo.Invoke{BlockName: "pong", Partner: "B", Op: "pongOp"},
		}}}
	client := &choreo.Process{Name: "client", Owner: "B",
		Body: &choreo.Sequence{BlockName: "cli", Children: []choreo.Activity{
			&choreo.Invoke{BlockName: "ping", Partner: "A", Op: "pingOp"},
			&choreo.Receive{BlockName: "pong", Partner: "A", Op: "pongOp"},
		}}}

	c := choreo.NewChoreography(reg)
	if err := c.AddParty(server); err != nil {
		log.Fatal(err)
	}
	if err := c.AddParty(client); err != nil {
		log.Fatal(err)
	}
	report, err := c.Check()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("consistent: %v\n", report.Consistent())

	evo, err := c.Evolve("A", choreo.Delete{Path: choreo.Path{"Sequence:srv", "Invoke:pong"}})
	if err != nil {
		log.Fatal(err)
	}
	im := evo.Impacts[0]
	fmt.Printf("change for %s: %s, %s\n", im.Partner, im.Classification.Kind, im.Classification.Scope)
	// Output:
	// consistent: true
	// change for B: additive+subtractive, variant
}

// ExampleDerivePublic derives the paper's buyer public process
// (Fig. 6) and prints the mapping table of Table 1.
func ExampleDerivePublic() {
	pub, err := choreo.DerivePublic(choreo.PaperBuyer(), choreo.PaperRegistry())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("states: %d\n", pub.Automaton.NumStates())
	fmt.Print(pub.Table)
	// Output:
	// states: 5
	// 0: BPELProcess, Sequence:buyer process
	// 1: Sequence:buyer process
	// 2: Sequence:buyer process, While:tracking, Switch:termination?, Sequence:cond continue, Sequence:cond terminate
	// 3: Sequence:cond continue
	// 4: Sequence:cond terminate
}

// ExampleConsistent shows the Fig. 5 worked example: a shared message
// is not enough when a mandatory alternative is missing.
func ExampleConsistent() {
	ok, err := choreo.Consistent(choreo.Fig5PartyA(), choreo.Fig5PartyB())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("fig5 consistent: %v\n", ok)
	// Output:
	// fig5 consistent: false
}

// ExampleNewSystem executes the paper's procurement choreography
// (Sec. 2) exhaustively under the synchronous communication model:
// bilaterally consistent public processes never deadlock (Sec. 3.2).
func ExampleNewSystem() {
	reg := choreo.PaperRegistry()
	parties := map[string]*choreo.Automaton{}
	for _, p := range []*choreo.Process{choreo.PaperBuyer(), choreo.PaperAccounting(), choreo.PaperLogistics()} {
		pub, err := choreo.DerivePublic(p, reg)
		if err != nil {
			log.Fatal(err)
		}
		parties[p.Owner] = pub.Automaton
	}
	sys, err := choreo.NewSystem(parties)
	if err != nil {
		log.Fatal(err)
	}
	res := sys.Explore(0)
	fmt.Printf("global states: %d, completions: %d, deadlock free: %v\n",
		res.States, res.Completions, res.DeadlockFree())
	// Output:
	// global states: 10, completions: 1, deadlock free: true
}

// ExampleChoreography_AdaptPartner replays the variant additive change
// of Sec. 5.2 (Figs. 11–14): accounting adds an order cancellation,
// the buyer's view changes in a way it cannot receive, and applying
// the suggested buyer adaptation restores consistency.
func ExampleChoreography_AdaptPartner() {
	c, err := choreo.PaperScenario()
	if err != nil {
		log.Fatal(err)
	}
	report, err := c.Evolve("A", choreo.PaperCancelChange())
	if err != nil {
		log.Fatal(err)
	}
	var buyer choreo.PartnerImpact
	for _, im := range report.Impacts {
		fmt.Printf("partner %s: view changed %v, %s, %s\n",
			im.Partner, im.ViewChanged, im.Classification.Kind, im.Classification.Scope)
		if im.Partner == "B" {
			buyer = im
		}
	}
	for _, s := range buyer.Suggestions {
		fmt.Println("suggestion:", s)
	}

	newBuyer, _, err := c.AdaptPartner("B", choreo.ExecutableSuggestions(buyer.Suggestions))
	if err != nil {
		log.Fatal(err)
	}
	if err := c.Commit(report); err != nil {
		log.Fatal(err)
	}
	if err := c.CommitParty(newBuyer); err != nil {
		log.Fatal(err)
	}
	check, err := c.Check()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("consistent after adaptation: %v\n", check.Consistent())
	// Output:
	// partner B: view changed true, additive, variant
	// partner L: view changed true, additive, invariant
	// suggestion: support additionally receiving A#B#cancelOp (state 1); widen receive Sequence:buyer process / Receive:delivery into a pick [widen receive Sequence:buyer process / Receive:delivery into pick with 1 extra branch(es)]
	// consistent after adaptation: true
}

// ExampleChoreographyStore_MigrateAll runs the bulk instance-migration
// engine in process: record running conversations, commit a
// subtractive change, then sweep the whole population to the new
// schema — migratable instances move, the rest are reported stranded.
func ExampleChoreographyStore_MigrateAll() {
	ctx := context.Background()
	st := choreo.NewChoreographyStore()
	if err := st.Create(ctx, "demo", nil); err != nil {
		log.Fatal(err)
	}

	server := &choreo.Process{Name: "server", Owner: "A",
		Body: &choreo.Sequence{BlockName: "srv", Children: []choreo.Activity{
			&choreo.Receive{BlockName: "ping", Partner: "B", Op: "pingOp"},
			&choreo.Invoke{BlockName: "pong", Partner: "B", Op: "pongOp"},
		}}}
	client := &choreo.Process{Name: "client", Owner: "B",
		Body: &choreo.Sequence{BlockName: "cli", Children: []choreo.Activity{
			&choreo.Invoke{BlockName: "ping", Partner: "A", Op: "pingOp"},
			&choreo.Receive{BlockName: "pong", Partner: "A", Op: "pongOp"},
		}}}
	// One batch, one commit, one version bump.
	if _, err := st.PutParties(ctx, "demo", []*choreo.Process{server, client}, nil); err != nil {
		log.Fatal(err)
	}

	// 100 running server conversations under the current schema.
	if _, err := st.SampleInstances(ctx, "demo", "A", 1, 100, 2); err != nil {
		log.Fatal(err)
	}

	// The server drops the pong reply — a subtractive change — and
	// commits it.
	shrunk := &choreo.Sequence{BlockName: "srv", Children: []choreo.Activity{
		&choreo.Receive{BlockName: "ping", Partner: "B", Op: "pingOp"},
	}}
	evo, err := st.Evolve(ctx, "demo", "A", choreo.Replace{Path: nil, New: shrunk})
	if err != nil {
		log.Fatal(err)
	}
	if _, err := st.CommitEvolution(ctx, evo); err != nil {
		log.Fatal(err)
	}

	// Sweep every tracked instance to the committed snapshot with 4
	// workers. Conversations that already sent the pong cannot replay
	// on the shrunk schema and are stranded.
	job, err := st.MigrateAll(ctx, "demo", 4)
	if err != nil {
		log.Fatal(err)
	}
	v := job.Snapshot()
	fmt.Printf("job %s: %s\n", v.ID, v.Status)
	fmt.Printf("migrated %d of %d, stranded %d\n", v.Migratable, v.Total, v.NonReplayable+v.Unviable)

	// Re-running the same migration is a no-op: the job identity is
	// (choreography, committed version).
	again, err := st.MigrateAll(ctx, "demo", 4)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("rerun is same job: %v\n", again == job)
	// Output:
	// job mig-demo-v2: done
	// migrated 70 of 100, stranded 30
	// rerun is same job: true
}

// ExampleChoreoClient_StartMigration drives the same sweep over the
// wire: POST the migration, poll it to completion, read the stranded
// report through the cursor.
func ExampleChoreoClient_StartMigration() {
	ctx := context.Background()
	st := choreo.NewChoreographyStore()
	srv := httptest.NewServer(choreo.NewChoreoServer(st).Handler())
	defer srv.Close()
	c := choreo.NewChoreoClient(srv.URL, nil)

	if err := st.Create(ctx, "demo", nil); err != nil {
		log.Fatal(err)
	}
	server := &choreo.Process{Name: "server", Owner: "A",
		Body: &choreo.Sequence{BlockName: "srv", Children: []choreo.Activity{
			&choreo.Receive{BlockName: "ping", Partner: "B", Op: "pingOp"},
			&choreo.Invoke{BlockName: "pong", Partner: "B", Op: "pongOp"},
		}}}
	if _, err := c.RegisterParty(ctx, "demo", server); err != nil {
		log.Fatal(err)
	}
	if _, err := c.SampleInstances(ctx, "demo", "A", 1, 50, 2); err != nil {
		log.Fatal(err)
	}
	shrunk := &choreo.Process{Name: "server", Owner: "A",
		Body: &choreo.Sequence{BlockName: "srv", Children: []choreo.Activity{
			&choreo.Receive{BlockName: "ping", Partner: "B", Op: "pingOp"},
		}}}
	evo, err := c.Evolve(ctx, "demo", shrunk)
	if err != nil {
		log.Fatal(err)
	}
	if _, err := c.CommitIfMatch(ctx, evo.Evolution, evo.BaseVersion); err != nil {
		log.Fatal(err)
	}

	job, err := c.StartMigration(ctx, "demo", 4)
	if err != nil {
		log.Fatal(err)
	}
	final, err := c.WaitMigration(ctx, "demo", job.Job, 0)
	if err != nil {
		log.Fatal(err)
	}
	stranded, err := c.MigrationStranded(ctx, "demo", job.Job)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("status: %s\n", final.Status)
	fmt.Printf("migrated %d of %d, stranded %d\n", final.Migratable, final.Total, len(stranded))
	// Output:
	// status: done
	// migrated 34 of 50, stranded 16
}
