package migrate

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/instance"
	"repro/internal/label"
)

// memSource is a synthetic sharded population. Commits record which
// items were migrated and how often each shard committed, so the tests
// can pin exactly-once semantics across cancel/resume cycles.
type memSource struct {
	shards [][]Item

	mu       sync.Mutex
	migrated map[string]int // "party/id" -> times committed as migrated
	commits  []int          // per-shard commit count
}

func newMemSource(shards int) *memSource {
	return &memSource{
		shards:   make([][]Item, shards),
		migrated: map[string]int{},
		commits:  make([]int, shards),
	}
}

func (m *memSource) add(shard int, party, id string, trace ...string) {
	var ls []label.Label
	for _, t := range trace {
		ls = append(ls, label.MustParse(t))
	}
	m.shards[shard] = append(m.shards[shard], Item{
		Party: party,
		Inst:  instance.Instance{ID: id, Trace: ls},
		Ref:   len(m.shards[shard]),
	})
}

func (m *memSource) Shards() int { return len(m.shards) }

func (m *memSource) Load(_ context.Context, shard int) ([]Item, error) {
	return append([]Item(nil), m.shards[shard]...), nil
}

func (m *memSource) Commit(_ context.Context, shard int, migrated []Item) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.commits[shard]++
	for _, it := range migrated {
		m.migrated[it.Party+"/"+it.Inst.ID]++
	}
	return nil
}

// classifyByID classifies from the instance ID: "bad-*" is
// non-replayable, "stuck-*" unviable, everything else migratable.
func classifyByID(_ string, inst instance.Instance) (instance.Status, error) {
	switch {
	case strings.HasPrefix(inst.ID, "bad-"):
		return instance.NonReplayable, nil
	case strings.HasPrefix(inst.ID, "stuck-"):
		return instance.Unviable, nil
	default:
		return instance.Migratable, nil
	}
}

// population fills src with a deterministic mixed population and
// returns the expected counts.
func population(src *memSource) Counts {
	want := Counts{}
	for shard := range src.shards {
		for i := 0; i < 5; i++ {
			id := fmt.Sprintf("inst-%d-%d", shard, i)
			switch i % 3 {
			case 0:
				want.Migratable++
			case 1:
				id = "bad-" + id
				want.NonReplayable++
			case 2:
				id = "stuck-" + id
				want.Unviable++
			}
			src.add(shard, "P", id)
			want.Total++
		}
	}
	return want
}

func TestEngineSweepPartition(t *testing.T) {
	for _, workers := range []int{1, 4, 16} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			src := newMemSource(8)
			want := population(src)
			job := NewJob("j", "c", 3, src.Shards())
			eng := &Engine{Workers: workers}
			if err := eng.Run(context.Background(), job, src, classifyByID); err != nil {
				t.Fatal(err)
			}
			v := job.Snapshot()
			if v.Status != StatusDone {
				t.Fatalf("status = %v, want done", v.Status)
			}
			if v.Counts != want {
				t.Fatalf("counts = %+v, want %+v", v.Counts, want)
			}
			if v.ShardsDone != src.Shards() {
				t.Fatalf("shardsDone = %d", v.ShardsDone)
			}
			if got := len(job.Stranded()); got != want.NonReplayable+want.Unviable {
				t.Fatalf("stranded = %d, want %d", got, want.NonReplayable+want.Unviable)
			}
			src.mu.Lock()
			defer src.mu.Unlock()
			if len(src.migrated) != want.Migratable {
				t.Fatalf("migrated = %d, want %d", len(src.migrated), want.Migratable)
			}
			for key, n := range src.migrated {
				if n != 1 {
					t.Fatalf("instance %s committed %d times", key, n)
				}
			}
			for shard, n := range src.commits {
				if n != 1 {
					t.Fatalf("shard %d committed %d times", shard, n)
				}
			}
		})
	}
}

func TestEngineRerunDoneIsNoop(t *testing.T) {
	src := newMemSource(4)
	want := population(src)
	job := NewJob("j", "c", 1, src.Shards())
	eng := &Engine{Workers: 2}
	if err := eng.Run(context.Background(), job, src, classifyByID); err != nil {
		t.Fatal(err)
	}
	first := job.Snapshot()
	firstStranded := job.Stranded()
	// Re-running must neither re-classify nor re-commit anything.
	if err := eng.Run(context.Background(), job, src, classifyByID); err != nil {
		t.Fatal(err)
	}
	second := job.Snapshot()
	if second != first {
		t.Fatalf("rerun changed the job: %+v -> %+v", first, second)
	}
	if len(job.Stranded()) != len(firstStranded) {
		t.Fatal("rerun changed the stranded report")
	}
	if second.Counts != want {
		t.Fatalf("counts = %+v, want %+v", second.Counts, want)
	}
	src.mu.Lock()
	defer src.mu.Unlock()
	for shard, n := range src.commits {
		if n != 1 {
			t.Fatalf("shard %d committed %d times after rerun", shard, n)
		}
	}
}

func TestEngineCancelResume(t *testing.T) {
	src := newMemSource(6)
	want := population(src)
	job := NewJob("j", "c", 1, src.Shards())

	// First run: a classifier that blocks on shard 3's first item and
	// cancels the sweep, with one worker so shards 0..2 are committed
	// deterministically before the block.
	ctx, cancel := context.WithCancel(context.Background())
	blocking := func(party string, inst instance.Instance) (instance.Status, error) {
		if strings.Contains(inst.ID, "-3-") {
			cancel()
			<-ctx.Done()
			return instance.Migratable, ctx.Err()
		}
		return classifyByID(party, inst)
	}
	eng := &Engine{Workers: 1}
	if err := eng.Run(ctx, job, src, blocking); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled run error = %v, want context.Canceled", err)
	}
	mid := job.Snapshot()
	if mid.Status != StatusCanceled {
		t.Fatalf("status after cancel = %v, want canceled", mid.Status)
	}
	if mid.ShardsDone != 3 {
		t.Fatalf("shardsDone after cancel = %d, want 3", mid.ShardsDone)
	}
	if mid.Total != 15 {
		t.Fatalf("total after cancel = %d, want 15 (3 shards x 5)", mid.Total)
	}

	// Resume: only the remaining shards are swept; the final report is
	// exactly the full population, nothing double-counted.
	if err := eng.Run(context.Background(), job, src, classifyByID); err != nil {
		t.Fatal(err)
	}
	v := job.Snapshot()
	if v.Status != StatusDone {
		t.Fatalf("status after resume = %v, want done", v.Status)
	}
	if v.Counts != want {
		t.Fatalf("counts after resume = %+v, want %+v", v.Counts, want)
	}
	src.mu.Lock()
	defer src.mu.Unlock()
	for shard, n := range src.commits {
		if n != 1 {
			t.Fatalf("shard %d committed %d times across cancel/resume", shard, n)
		}
	}
}

type failingSource struct {
	*memSource
	failShard int
}

func (f *failingSource) Commit(ctx context.Context, shard int, migrated []Item) error {
	if shard == f.failShard {
		return errors.New("disk on fire")
	}
	return f.memSource.Commit(ctx, shard, migrated)
}

func TestEngineFailureIsRetryable(t *testing.T) {
	mem := newMemSource(4)
	want := population(mem)
	src := &failingSource{memSource: mem, failShard: 2}
	job := NewJob("j", "c", 1, src.Shards())
	eng := &Engine{Workers: 1}
	if err := eng.Run(context.Background(), job, src, classifyByID); err == nil {
		t.Fatal("run over a failing source succeeded")
	}
	if v := job.Snapshot(); v.Status != StatusFailed || v.Err == "" {
		t.Fatalf("status = %v err=%q, want failed with message", v.Status, v.Err)
	}
	// Retry against a healed source completes.
	src.failShard = -1
	if err := eng.Run(context.Background(), job, src, classifyByID); err != nil {
		t.Fatal(err)
	}
	if v := job.Snapshot(); v.Status != StatusDone || v.Counts != want {
		t.Fatalf("after retry: %+v, want done with %+v", v, want)
	}
}

func TestJobWaitAndConcurrentRun(t *testing.T) {
	src := newMemSource(8)
	population(src)
	job := NewJob("j", "c", 1, src.Shards())
	eng := &Engine{Workers: 4}
	// Two concurrent runners: one sweeps, the other must wait instead
	// of double-sweeping; Wait observes the terminal state.
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := eng.Run(context.Background(), job, src, classifyByID); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	v, err := job.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if v.Status != StatusDone {
		t.Fatalf("status = %v", v.Status)
	}
	src.mu.Lock()
	defer src.mu.Unlock()
	for shard, n := range src.commits {
		if n != 1 {
			t.Fatalf("shard %d committed %d times under concurrent runs", shard, n)
		}
	}
}

// TestEngineJobCancelReturnsErrCanceled: a sweep stopped by
// Job.Cancel (not by the caller's context) must not report success.
func TestEngineJobCancelReturnsErrCanceled(t *testing.T) {
	src := newMemSource(6)
	population(src)
	job := NewJob("j", "c", 1, src.Shards())
	cancelOnce := sync.Once{}
	blocking := func(party string, inst instance.Instance) (instance.Status, error) {
		if strings.Contains(inst.ID, "-3-") {
			cancelOnce.Do(job.Cancel)
		}
		return classifyByID(party, inst)
	}
	eng := &Engine{Workers: 1}
	err := eng.Run(context.Background(), job, src, blocking)
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("Run after Job.Cancel = %v, want ErrCanceled", err)
	}
	if v := job.Snapshot(); v.Status != StatusCanceled {
		t.Fatalf("status = %v, want canceled", v.Status)
	}
	// Resume completes and reports success.
	if err := eng.Run(context.Background(), job, src, classifyByID); err != nil {
		t.Fatal(err)
	}
}

// TestRunAsyncClaimsSynchronously: the moment RunAsync returns, a
// resumed job is observable as running (never in its stale terminal
// state) and an immediate Cancel takes effect.
func TestRunAsyncClaimsSynchronously(t *testing.T) {
	src := newMemSource(6)
	want := population(src)
	job := NewJob("j", "c", 1, src.Shards())
	// Leave the job canceled with nothing swept.
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	eng := &Engine{Workers: 2}
	if err := eng.Run(canceled, job, src, classifyByID); !errors.Is(err, context.Canceled) {
		t.Fatalf("seed run = %v, want context.Canceled", err)
	}

	// Resume asynchronously behind a gate so the sweep cannot finish
	// before we observe the claimed state.
	gate := make(chan struct{})
	gated := func(party string, inst instance.Instance) (instance.Status, error) {
		<-gate
		return classifyByID(party, inst)
	}
	eng.RunAsync(job, src, gated)
	if v := job.Snapshot(); v.Status != StatusRunning {
		t.Fatalf("status right after RunAsync = %v, want running", v.Status)
	}
	close(gate)
	if v, err := job.Wait(context.Background()); err != nil || v.Status != StatusDone || v.Counts != want {
		t.Fatalf("after async resume: %+v err=%v, want done with %+v", v, err, want)
	}
}

// TestRunShardsFoldsOnlyOnSuccess drives the per-shard entry point
// directly: a shard whose function fails is not folded, and the retry
// sweeps exactly the shards still pending.
func TestRunShardsFoldsOnlyOnSuccess(t *testing.T) {
	job := NewJob("j", "c", 1, 4)
	var mu sync.Mutex
	calls := make([]int, 4)
	failShard := 2
	sweep := func(_ context.Context, shard int) (Counts, []Stranded, error) {
		mu.Lock()
		defer mu.Unlock()
		calls[shard]++
		if shard == failShard {
			return Counts{}, nil, errors.New("append failed")
		}
		return Counts{Total: 2, Migratable: 1, Unviable: 1},
			[]Stranded{{Party: "P", ID: fmt.Sprintf("s%d", shard), Status: instance.Unviable}}, nil
	}
	eng := &Engine{Workers: 1}
	if err := eng.RunShards(context.Background(), job, sweep); err == nil {
		t.Fatal("RunShards with a failing shard succeeded")
	}
	if v := job.Snapshot(); v.Status != StatusFailed || v.ShardsDone != 2 || v.Total != 4 {
		t.Fatalf("after the failure: %+v, want failed with shards 0 and 1 folded", v)
	}
	failShard = -1
	if err := eng.RunShards(context.Background(), job, sweep); err != nil {
		t.Fatal(err)
	}
	v, stranded := job.Report()
	if v.Status != StatusDone || v.Counts != (Counts{Total: 8, Migratable: 4, Unviable: 4}) || len(stranded) != 4 {
		t.Fatalf("after the retry: %+v with %d stranded, want done with 8 counted and 4 stranded", v, len(stranded))
	}
	if fmt.Sprint(calls) != "[1 1 2 1]" {
		t.Fatalf("shard calls = %v, want only the failed shard swept twice", calls)
	}
}

// TestTally pins the shared counting: migratable instances count and
// report true, stranded ones land in the report, and Poll consults
// the context once every pollEvery instances.
func TestTally(t *testing.T) {
	var tally Tally
	for i, st := range []instance.Status{instance.Migratable, instance.NonReplayable, instance.Unviable, instance.Migratable} {
		if got := tally.Add("P", fmt.Sprint(i), st); got != (st == instance.Migratable) {
			t.Fatalf("Add(%v) = %v", st, got)
		}
	}
	if tally.Counts != (Counts{Total: 4, Migratable: 2, NonReplayable: 1, Unviable: 1}) || len(tally.Stranded) != 2 {
		t.Fatalf("tally = %+v", tally)
	}
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	tally, polled := Tally{}, 0
	for i := 0; i < 2*pollEvery; i++ {
		if tally.Poll(canceled) != nil {
			polled++
		}
		tally.Add("P", "x", instance.Migratable)
	}
	if polled != 2 {
		t.Fatalf("Poll consulted the context %d times over %d instances, want 2", polled, 2*pollEvery)
	}
}
