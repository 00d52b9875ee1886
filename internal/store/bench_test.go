package store

import (
	"context"
	"fmt"
	"math"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/bpel"
	"repro/internal/gen"
	"repro/internal/ingest"
	"repro/internal/instance"
	"repro/internal/paperrepro"
)

// genStore loads n generated two-party choreographies into a store.
func genStore(b testing.TB, n int, p gen.Params) *Store {
	b.Helper()
	s := New()
	for i := 0; i < n; i++ {
		conv, err := gen.Generate(int64(i+1), p)
		if err != nil {
			b.Fatal(err)
		}
		id := genID(i)
		if err := s.Create(ctx, id, nil); err != nil {
			b.Fatal(err)
		}
		if _, err := s.RegisterParty(ctx, id, conv.A); err != nil {
			b.Fatal(err)
		}
		if _, err := s.RegisterParty(ctx, id, conv.B); err != nil {
			b.Fatal(err)
		}
	}
	return s
}

var benchParams = gen.Params{PartyA: "A", PartyB: "B", Messages: 14, MaxDepth: 3, ChoiceProb: 35, MaxBranch: 3}

// BenchmarkCheckUncached is the baseline: every check recomputes the
// bilateral views, the intersection and annotated emptiness.
func BenchmarkCheckUncached(b *testing.B) {
	s := genStore(b, 8, benchParams)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.CheckUncached(ctx, genID(i%8)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCheckCached serves repeated checks from the
// consistency-result cache.
func BenchmarkCheckCached(b *testing.B) {
	s := genStore(b, 8, benchParams)
	for i := 0; i < 8; i++ { // warm
		if _, err := s.Check(ctx, genID(i)); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Check(ctx, genID(i%8)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkParallelMixedTraffic drives the serving workload choreod is
// built for: many goroutines issuing mostly checks with occasional
// evolve→commit writes against a pool of choreographies.
func BenchmarkParallelMixedTraffic(b *testing.B) {
	const pool = 16
	s := genStore(b, pool, benchParams)
	var seq atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			n := seq.Add(1)
			id := genID(int(n) % pool)
			if n%16 == 0 {
				// Write path: analyze and commit a random change.
				snap, err := s.Snapshot(ctx, id)
				if err != nil {
					b.Fatal(err)
				}
				party, _ := snap.Party("A")
				op, err := gen.RandomChange(n, party.Private, snap.Registry)
				if err != nil {
					continue // not every process admits every change
				}
				evo, err := s.Evolve(ctx, id, "A", op)
				if err != nil {
					continue
				}
				_, _ = s.CommitEvolution(ctx, evo) // conflicts are expected
			} else {
				if _, err := s.Check(ctx, id); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

// BenchmarkEvolveAnalysis measures one full evolution analysis (the
// paper's Fig. 4 loop) on the procurement scenario.
func BenchmarkEvolveAnalysis(b *testing.B) {
	s := New()
	if err := s.Create(ctx, "p", paperSyncOps); err != nil {
		b.Fatal(err)
	}
	for _, p := range []*bpel.Process{
		paperrepro.BuyerProcess(), paperrepro.AccountingProcess(), paperrepro.LogisticsProcess(),
	} {
		if _, err := s.RegisterParty(ctx, "p", p); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Evolve(ctx, "p", paperrepro.Accounting, paperrepro.CancelChange()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkIngestEvents drives the streaming event path end to end —
// batches of observed messages through the lane engine into live
// instance state — crossing batch size with apply workers. The
// events/s metric is the acceptance number for the ingest subsystem.
func BenchmarkIngestEvents(b *testing.B) {
	for _, batch := range []int{1, 64, 1024} {
		for _, workers := range []int{1, 4, 8} {
			b.Run(fmt.Sprintf("batch%d/workers%d", batch, workers), func(b *testing.B) {
				s := New(WithIngestWorkers(workers))
				if err := s.Create(ctx, "p", paperSyncOps); err != nil {
					b.Fatal(err)
				}
				for _, p := range []*bpel.Process{
					paperrepro.BuyerProcess(), paperrepro.AccountingProcess(), paperrepro.LogisticsProcess(),
				} {
					if _, err := s.RegisterParty(ctx, "p", p); err != nil {
						b.Fatal(err)
					}
				}
				snap, err := s.Snapshot(ctx, "p")
				if err != nil {
					b.Fatal(err)
				}
				// A pool of valid interleaved streams; cycling past the end
				// re-feeds instances, which then deviate — keeping a realistic
				// mix of stepping and deviated instances in long runs.
				var pool []ingest.Event
				for pi, party := range []string{paperrepro.Buyer, paperrepro.Accounting, paperrepro.Logistics} {
					ps, _ := snap.Party(party)
					insts := instance.SampleInstances(ps.Public, int64(pi+1), 256, 10)
					for i := range insts {
						insts[i].ID = fmt.Sprintf("b%d-%d", pi, i)
					}
					pool = append(pool, interleave(party, insts)...)
				}
				if len(pool) < batch {
					b.Fatalf("event pool %d too small for batch %d", len(pool), batch)
				}
				buf := make([]ingest.Event, batch)
				off := 0
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					for j := range buf {
						buf[j] = pool[off]
						off = (off + 1) % len(pool)
					}
					if _, err := s.IngestEvents(ctx, "p", buf); err != nil {
						b.Fatal(err)
					}
				}
				b.StopTimer()
				b.ReportMetric(float64(b.N*batch)/b.Elapsed().Seconds(), "events/s")
			})
		}
	}
}

// TestCacheSpeedup pins the acceptance criterion: repeated checks
// through the cache must be at least 5× faster than the uncached
// path. The cached path is a map lookup per pair, so the real factor
// is orders of magnitude larger; 5× keeps the test robust on loaded
// CI hosts. Each side is the fastest of several repetitions of its
// loop: test packages run in parallel, and one GC pause or preemption
// inside the short cached loop would otherwise sink the ratio. A
// broken cache reads about 1× on every repetition.
func TestCacheSpeedup(t *testing.T) {
	s := genStore(t, 4, benchParams)
	const rounds, reps = 40, 5
	// Warm both the view memos and the result cache so the comparison
	// isolates the consistency computation itself.
	for i := 0; i < 4; i++ {
		if _, err := s.Check(ctx, genID(i)); err != nil {
			t.Fatal(err)
		}
	}
	fastest := func(check func(context.Context, string) (*CheckReport, error), cached bool) time.Duration {
		best := time.Duration(math.MaxInt64)
		for r := 0; r < reps; r++ {
			start := time.Now()
			for i := 0; i < rounds; i++ {
				rep, err := check(ctx, genID(i%4))
				if err != nil {
					t.Fatal(err)
				}
				for _, p := range rep.Pairs {
					if p.Cached != cached {
						t.Fatalf("pair %s/%s: cached %v, want %v", p.A, p.B, p.Cached, cached)
					}
				}
			}
			best = min(best, time.Since(start))
		}
		return best
	}
	uncached := fastest(s.CheckUncached, false)
	cached := fastest(s.Check, true)

	if cached <= 0 {
		return // sub-resolution fast: trivially ≥ 5×
	}
	factor := float64(uncached) / float64(cached)
	t.Logf("uncached %v, cached %v → %.1f× speedup (fastest of %d)", uncached, cached, factor, reps)
	if factor < 5 {
		t.Fatalf("cache speedup %.1f×, want ≥ 5×", factor)
	}
}
