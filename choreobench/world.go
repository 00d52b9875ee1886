package main

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/server"
)

// world is one workload's provisioned state on one env, with the two
// client op functions that drive it.
type world interface {
	// clients returns the two clients' op functions; their state (RNG,
	// streams, versions) persists across the phases that reuse them.
	clients() [2]opFunc
	// verify runs the end-of-phase correctness checks.
	verify(ctx context.Context) error
}

// parallel runs f(i) for i in [0, n) on two goroutines, as the two
// benchmark clients would, returning the first error.
func parallel(n int, f func(i int) error) error {
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < n; i += 2 {
				if err := f(i); err != nil {
					errs[g] = err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if errs[0] != nil {
		return errs[0]
	}
	return errs[1]
}

// provision creates choreography id from a corpus scenario over HTTP —
// create, one parties:batch registration (version 1), then factor
// replicas of every scripted instance — and returns its version.
func (b *bench) provision(ctx context.Context, e *env, id string, cs *corpusScenario, factor int) error {
	if err := e.cl.CreateChoreography(ctx, id, cs.sc.SyncOps); err != nil {
		return fmt.Errorf("create %s: %w", id, err)
	}
	resp, err := e.cl.RegisterParties(ctx, id, cs.sc.Parties, nil)
	if err != nil {
		return fmt.Errorf("register %s: %w", id, err)
	}
	if resp.Version != 1 {
		return fmt.Errorf("register %s: version %d, want 1", id, resp.Version)
	}
	b.replayUnmarshal(0, cs)
	for _, p := range cs.sc.Parties {
		insts := cs.replicas(p.Owner, factor)
		for len(insts) > 0 {
			n := min(len(insts), 2000)
			added, err := e.cl.AddInstances(ctx, id, p.Owner, insts[:n])
			if err != nil {
				return fmt.Errorf("seeding %s/%s: %w", id, p.Owner, err)
			}
			if added != n {
				return fmt.Errorf("seeding %s/%s: added %d of %d", id, p.Owner, added, n)
			}
			insts = insts[n:]
		}
	}
	return nil
}

// checkAnalysis compares an evolve answer with the episode manifest:
// the public-change flag, and per partner whether its view changed and
// how the change is classified (Defs. 5/6).
func checkAnalysis(ce *corpusEpisode, resp *server.EvolveOpsResponse) error {
	if resp.PublicChanged != ce.ep.PublicChanged {
		return fmt.Errorf("%s: publicChanged %v, want %v", ce.ep.Name, resp.PublicChanged, ce.ep.PublicChanged)
	}
	seen := 0
	for _, im := range resp.Impacts {
		want, expected := ce.ep.Impacts[im.Partner]
		switch {
		case !expected && im.ViewChanged:
			return fmt.Errorf("%s: partner %s view changed (%s %s), want unchanged", ce.ep.Name, im.Partner, im.Kind, im.Scope)
		case expected && (!im.ViewChanged || im.Kind != want.Kind || im.Scope != want.Scope):
			return fmt.Errorf("%s: partner %s classified %v %s %s, want %s %s",
				ce.ep.Name, im.Partner, im.ViewChanged, im.Kind, im.Scope, want.Kind, want.Scope)
		case expected:
			seen++
		}
	}
	if seen != len(ce.ep.Impacts) {
		return fmt.Errorf("%s: %d classified partners, want %d", ce.ep.Name, seen, len(ce.ep.Impacts))
	}
	return nil
}

// allCached reports whether every pair of a check answer came from the
// consistency-result cache.
func allCached(rep *server.CheckResponse) bool {
	for _, p := range rep.Pairs {
		if !p.Cached {
			return false
		}
	}
	return true
}
