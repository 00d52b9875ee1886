// Package migrate is the bulk instance-migration engine: it sweeps an
// entire population of running instances through migratability
// classification (the ADEPT-style compliance criterion of
// internal/instance) and moves the compliant ones to a committed
// target schema version.
//
// The design targets the store's serving regime — millions of tracked
// instances under concurrent evolve/check traffic:
//
//   - The unit of work is one shard of the population, swept by a
//     ShardFunc the owner of the instances supplies (Engine.RunShards).
//     The engine never asks for a global view, so the owner only ever
//     locks one shard at a time. internal/store sweeps a shard in a
//     single pass under that shard's lock — classify every record in
//     place against immutable, pre-determinized per-schema checkers,
//     journal the outcome, re-tag — while checks, evolutions and
//     recordings proceed on the other shards.
//   - Shards are fanned out over a bounded worker pool
//     (Engine.Workers); shards are independent, so the sweep scales
//     with the worker count until it saturates the machine.
//   - Progress is tracked per shard in a Job: a shard's counters and
//     stranded instances are folded in atomically once its ShardFunc
//     returns nil, never partially. A canceled sweep therefore leaves
//     the job in a consistent "k of n shards done" state, and a later
//     run resumes with exactly the shards that have not committed.
//   - Jobs are idempotent. Run on a Done job returns immediately
//     without touching anything; re-running a completed sweep is a
//     no-op by construction. Concurrent Run calls on one job do not
//     double-sweep: one becomes the runner, the rest wait for it.
//
// The package is deliberately store-agnostic: Engine.Run adapts a
// Source and a Classifier — tiny interfaces — to a ShardFunc, so the
// engine (and its tests) run against synthetic populations as readily
// as against the live store. Tally is the one place that counts a
// shard's classifications, for the adapter and for the store alike.
package migrate

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"

	"repro/internal/instance"
)

// ErrCanceled reports a sweep stopped by Job.Cancel before every
// shard committed; the job is resumable.
var ErrCanceled = errors.New("migrate: sweep canceled")

// Status is the lifecycle state of a Job.
type Status int

// Job lifecycle states.
const (
	// StatusRunning: a sweep is in flight (also the initial state of a
	// job between creation and its first Run, so that a poller never
	// observes a terminal state before the sweep had a chance to act).
	StatusRunning Status = iota
	// StatusDone: every shard committed; the report is final.
	StatusDone
	// StatusCanceled: the sweep stopped early (context cancellation or
	// Cancel); completed shards stay committed, Run resumes the rest.
	StatusCanceled
	// StatusFailed: a shard failed terminally; Run may retry.
	StatusFailed
)

func (s Status) String() string {
	switch s {
	case StatusRunning:
		return "running"
	case StatusDone:
		return "done"
	case StatusCanceled:
		return "canceled"
	case StatusFailed:
		return "failed"
	default:
		return fmt.Sprintf("Status(%d)", int(s))
	}
}

// Stranded is one instance that cannot move to the target version.
type Stranded struct {
	Party string
	ID    string
	// Status is why the instance is stuck: instance.NonReplayable or
	// instance.Unviable.
	Status instance.Status
}

// Item is one tracked instance as handed to the sweep. Ref is an
// opaque, source-defined handle (stable at least for the duration of
// the sweep) that Commit uses to address the instance inside its
// shard.
type Item struct {
	Party string
	Inst  instance.Instance
	Ref   int
}

// Source abstracts the instance population Engine.Run sweeps. Load and
// Commit are called at most once per shard per run, from at most one
// worker at a time for a given shard; different shards are handled
// concurrently.
type Source interface {
	// Shards returns the fixed shard count of the population.
	Shards() int
	// Load copies one shard's instances out. The engine owns the
	// returned slice and filters it in place.
	Load(ctx context.Context, shard int) ([]Item, error)
	// Commit marks the migratable items of one shard as moved to the
	// target version. It is called exactly once per completed shard,
	// after every item of the shard has been classified.
	Commit(ctx context.Context, shard int, migrated []Item) error
}

// Classifier classifies one instance against the target schema. It
// must be safe for concurrent use.
type Classifier func(party string, inst instance.Instance) (instance.Status, error)

// Counts are the cumulative progress counters of a job. Only committed
// shards contribute, so the numbers never double-count across a
// cancel/resume cycle.
type Counts struct {
	Total         int
	Migratable    int
	NonReplayable int
	Unviable      int
}

func (c *Counts) add(o Counts) {
	c.Total += o.Total
	c.Migratable += o.Migratable
	c.NonReplayable += o.NonReplayable
	c.Unviable += o.Unviable
}

// pollEvery is how many instances Tally.Poll lets pass between two
// context checks: a cancel still lands within microseconds, and the
// per-instance loop stays free of it.
const pollEvery = 32

// Tally accumulates one shard's classification outcome — its counters
// and its stranded instances — as a ShardFunc returns it.
type Tally struct {
	Counts
	Stranded []Stranded
}

// Add counts one classified instance and reports whether it migrates.
func (t *Tally) Add(party, id string, st instance.Status) bool {
	t.Total++
	switch st {
	case instance.Migratable:
		t.Migratable++
		return true
	case instance.NonReplayable:
		t.NonReplayable++
	case instance.Unviable:
		t.Unviable++
	default:
		return false
	}
	t.Stranded = append(t.Stranded, Stranded{Party: party, ID: id, Status: st})
	return false
}

// Poll returns ctx's error once every pollEvery counted instances (and
// before the first); call it ahead of each Add.
func (t *Tally) Poll(ctx context.Context) error {
	if t.Total%pollEvery != 0 {
		return nil
	}
	return ctx.Err()
}

// View is a consistent copy of a job's observable state.
type View struct {
	ID            string
	Choreography  string
	TargetVersion uint64
	Status        Status
	Err           string
	Shards        int
	ShardsDone    int
	Counts
}

// Terminal reports whether the job has left the running state.
func (v View) Terminal() bool { return v.Status != StatusRunning }

// Job is one bulk-migration job: the durable identity of a sweep
// toward one committed choreography version, its per-shard checkpoint,
// progress counters and stranded-instance report. All methods are safe
// for concurrent use.
type Job struct {
	// ID is the job identifier; the store derives it deterministically
	// from (choreography, target version), which is what makes POSTing
	// the same migration twice idempotent.
	ID string
	// Choreography and TargetVersion name the sweep's target: the
	// committed snapshot version instances are moved to.
	Choreography  string
	TargetVersion uint64

	mu     sync.Mutex
	status Status
	errMsg string
	// failErr is the live shard-failure error behind errMsg, kept so
	// Run's callers can classify it with errors.Is (injected fault,
	// degraded store). A job recovered from the journal has only the
	// message.
	failErr error
	done    []bool // per-shard commit checkpoint
	doneN   int
	counts  Counts
	// stranded holds the stranded instances as one exact-size list per
	// folded shard, in fold order; flatStrandedLocked joins them. A
	// fold copies its shard's list once instead of regrowing one
	// job-wide slice.
	stranded [][]Stranded
	// sorted caches the sort of stranded, invalidated when a shard
	// folds in — status polls re-read the report without re-sorting.
	sorted  []Stranded
	running bool               // a Run call is the active runner
	cancel  context.CancelFunc // cancels the active runner
	waiters chan struct{}      // closed when the active runner ends
}

// NewJob returns a fresh job over a population of shards shards.
func NewJob(id, choreography string, targetVersion uint64, shards int) *Job {
	return &Job{
		ID:            id,
		Choreography:  choreography,
		TargetVersion: targetVersion,
		status:        StatusRunning,
		done:          make([]bool, shards),
	}
}

// JobState is the serializable checkpoint of a Job: everything needed
// to reconstruct its observable state after a restart. It carries no
// runner-role fields — a persisted job is, by definition, not being
// swept.
type JobState struct {
	ID            string     `json:"id"`
	Choreography  string     `json:"choreography"`
	TargetVersion uint64     `json:"targetVersion"`
	Status        Status     `json:"status"`
	Err           string     `json:"error,omitempty"`
	Done          []bool     `json:"done"`
	Counts        Counts     `json:"counts"`
	Stranded      []Stranded `json:"stranded,omitempty"`
}

// State returns a consistent serializable checkpoint of the job.
func (j *Job) State() JobState {
	j.mu.Lock()
	defer j.mu.Unlock()
	return JobState{
		ID:            j.ID,
		Choreography:  j.Choreography,
		TargetVersion: j.TargetVersion,
		Status:        j.status,
		Err:           j.errMsg,
		Done:          append([]bool(nil), j.done...),
		Counts:        j.counts,
		Stranded:      j.flatStrandedLocked(),
	}
}

// flatStrandedLocked returns a new slice of every folded shard's
// stranded instances in fold order, nil when there are none.
func (j *Job) flatStrandedLocked() []Stranded {
	n := 0
	for _, l := range j.stranded {
		n += len(l)
	}
	if n == 0 {
		return nil
	}
	out := make([]Stranded, 0, n)
	for _, l := range j.stranded {
		out = append(out, l...)
	}
	return out
}

// RestoreJob reconstructs a job from a persisted state. The restored
// status is settled for a world where no sweep survives a restart: a
// job whose shards are all committed is Done; one persisted while
// running (or mid-resume) comes back Canceled — terminal but
// resumable, exactly like a sweep stopped by Cancel; Canceled and
// Failed states persist as they were.
func RestoreJob(st JobState) *Job {
	j := &Job{
		ID:            st.ID,
		Choreography:  st.Choreography,
		TargetVersion: st.TargetVersion,
		status:        st.Status,
		errMsg:        st.Err,
		done:          append([]bool(nil), st.Done...),
		counts:        st.Counts,
	}
	if len(st.Stranded) > 0 {
		j.stranded = [][]Stranded{slices.Clone(st.Stranded)}
	}
	for _, d := range j.done {
		if d {
			j.doneN++
		}
	}
	switch {
	case j.doneN == len(j.done):
		j.status, j.errMsg = StatusDone, ""
	case j.status == StatusRunning:
		j.status = StatusCanceled
	}
	return j
}

// Snapshot returns a consistent copy of the job's progress.
func (j *Job) Snapshot() View {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.viewLocked()
}

func (j *Job) viewLocked() View {
	return View{
		ID:            j.ID,
		Choreography:  j.Choreography,
		TargetVersion: j.TargetVersion,
		Status:        j.status,
		Err:           j.errMsg,
		Shards:        len(j.done),
		ShardsDone:    j.doneN,
		Counts:        j.counts,
	}
}

// Stranded returns the stranded-instance report, sorted by
// (party, id) so pagination over it is stable. The sorted slice is
// cached until the next shard folds in; callers must not mutate it.
func (j *Job) Stranded() []Stranded {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.strandedLocked()
}

func (j *Job) strandedLocked() []Stranded {
	if j.sorted == nil {
		j.sorted = j.flatStrandedLocked()
		sort.Slice(j.sorted, func(a, b int) bool {
			if j.sorted[a].Party != j.sorted[b].Party {
				return j.sorted[a].Party < j.sorted[b].Party
			}
			return j.sorted[a].ID < j.sorted[b].ID
		})
	}
	return j.sorted
}

// Report returns the progress view and the sorted stranded report
// under one lock acquisition, so the two are mutually consistent even
// while shards are folding in.
func (j *Job) Report() (View, []Stranded) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.viewLocked(), j.strandedLocked()
}

// Cancel stops the active sweep, if any. Committed shards keep their
// results; a later Run resumes the rest.
func (j *Job) Cancel() {
	j.mu.Lock()
	cancel := j.cancel
	j.mu.Unlock()
	if cancel != nil {
		cancel()
	}
}

// Wait blocks until the job reaches a terminal state or ctx is done.
func (j *Job) Wait(ctx context.Context) (View, error) {
	for {
		j.mu.Lock()
		if j.status != StatusRunning && !j.running {
			j.mu.Unlock()
			return j.Snapshot(), nil
		}
		if j.waiters == nil {
			j.waiters = make(chan struct{})
		}
		ch := j.waiters
		j.mu.Unlock()
		select {
		case <-ctx.Done():
			return j.Snapshot(), ctx.Err()
		case <-ch:
		}
	}
}

// begin claims the runner role. It returns run=false when the job is
// already terminal-and-final (Done) or another runner is active; in
// the latter case wait is the channel closed when that runner ends.
func (j *Job) begin(cancel context.CancelFunc) (run bool, wait <-chan struct{}) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.status == StatusDone {
		return false, nil
	}
	if j.running {
		if j.waiters == nil {
			j.waiters = make(chan struct{})
		}
		return false, j.waiters
	}
	j.running = true
	j.status = StatusRunning
	j.errMsg = ""
	j.cancel = cancel
	return true, nil
}

// pending returns the shards not yet committed.
func (j *Job) pending() []int {
	j.mu.Lock()
	defer j.mu.Unlock()
	var out []int
	for i, d := range j.done {
		if !d {
			out = append(out, i)
		}
	}
	return out
}

// FoldShard folds one committed shard's results into the job. It is
// idempotent per shard — folding an already-committed shard is a
// no-op — which is what lets crash recovery replay journaled folds
// without double counting, and lets a ShardFunc fold its own shard
// ahead of the engine (see ShardFunc).
func (j *Job) FoldShard(shard int, c Counts, stranded []Stranded) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.done[shard] {
		return
	}
	j.done[shard] = true
	j.doneN++
	j.counts.add(c)
	if len(stranded) > 0 {
		j.stranded = append(j.stranded, slices.Clone(stranded))
	}
	j.sorted = nil
	if j.doneN == len(j.done) {
		// Every shard committed: the job is Done no matter how the
		// folds arrived (a live sweep's finish would settle the same
		// way; recovery replaying folds has no finish to rely on).
		j.status, j.errMsg = StatusDone, ""
	}
}

// finish releases the runner role and settles the terminal status.
func (j *Job) finish(sweepErr error, canceled bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.running = false
	j.cancel = nil
	switch {
	case j.doneN == len(j.done):
		j.status = StatusDone
	case canceled:
		j.status = StatusCanceled
	case sweepErr != nil:
		j.status = StatusFailed
		j.errMsg = sweepErr.Error()
		j.failErr = sweepErr
	default:
		j.status = StatusCanceled
	}
	if j.waiters != nil {
		close(j.waiters)
		j.waiters = nil
	}
}

// Engine runs bulk-migration sweeps with a bounded worker pool.
type Engine struct {
	// Workers bounds the concurrent shard sweeps (<= 0 means 1).
	Workers int
}

// ShardFunc sweeps one shard of a job's population: it classifies the
// shard's instances, commits the migratable ones, and returns the
// shard's counters and stranded instances. The engine calls it at
// most once per pending shard per run, from one worker at a time per
// shard, and folds the result into the job only when it returns nil —
// so nil must mean the shard's migrations are committed (and, for a
// durable owner, journaled), and an error must mean nothing of the
// shard was applied. A ShardFunc may fold its own result first
// (Job.FoldShard is idempotent), e.g. to fold inside its owner's
// critical section.
type ShardFunc func(ctx context.Context, shard int) (Counts, []Stranded, error)

// Run executes (or resumes) job over src: every shard not yet
// committed is loaded, classified through classify, and committed. It
// is RunShards over the adapter sourceShards.
func (e *Engine) Run(ctx context.Context, job *Job, src Source, classify Classifier) error {
	return e.RunShards(ctx, job, sourceShards(src, classify))
}

// RunAsync is RunShardsAsync over src and classify (see Run).
func (e *Engine) RunAsync(job *Job, src Source, classify Classifier) {
	e.RunShardsAsync(job, sourceShards(src, classify))
}

// RunShards executes (or resumes) job: sweep runs on every shard not
// yet committed. RunShards returns when the sweep ends, and returns
// nil only when the job is Done — otherwise the caller's context error
// (canceled mid-sweep, job Canceled and resumable), ErrCanceled
// (stopped by Job.Cancel), or the shard failure (job Failed,
// retryable). Running a Done job is a no-op; when another runner is
// already sweeping the same job, this call waits for it and reports
// the state it left.
func (e *Engine) RunShards(ctx context.Context, job *Job, sweep ShardFunc) error {
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	run, wait := job.begin(cancel)
	if !run {
		if wait != nil {
			select {
			case <-wait:
			case <-ctx.Done():
				return ctx.Err()
			}
		}
		return job.outcome(ctx)
	}
	e.sweep(runCtx, job, sweep)
	return job.outcome(ctx)
}

// RunShardsAsync claims the runner role synchronously — the job is
// observable as running, and cancelable, the moment it returns — and
// executes the sweep in a new goroutine with its own lifetime
// (stopped by Job.Cancel, not by any request context). A job that is
// already done or being swept by another runner is left untouched.
func (e *Engine) RunShardsAsync(job *Job, sweep ShardFunc) {
	runCtx, cancel := context.WithCancel(context.Background())
	run, _ := job.begin(cancel)
	if !run {
		cancel()
		return
	}
	go func() {
		defer cancel()
		e.sweep(runCtx, job, sweep)
	}()
}

// outcome translates the job's settled state into RunShards' error
// contract: nil iff Done.
func (j *Job) outcome(ctx context.Context) error {
	switch v := j.Snapshot(); v.Status {
	case StatusDone:
		return nil
	case StatusFailed:
		j.mu.Lock()
		failErr := j.failErr
		j.mu.Unlock()
		if failErr != nil {
			return failErr
		}
		return errors.New(v.Err)
	default:
		if err := ctx.Err(); err != nil {
			return err
		}
		return ErrCanceled
	}
}

// sweep fans the job's pending shards over the worker pool, folding
// each shard whose ShardFunc succeeds, and settles the job's terminal
// state; the caller holds the runner role.
func (e *Engine) sweep(runCtx context.Context, job *Job, sweepShard ShardFunc) {
	pending := job.pending()
	workers := e.Workers
	if workers <= 0 {
		workers = 1
	}
	if workers > len(pending) {
		workers = max(1, len(pending))
	}

	var (
		wg      sync.WaitGroup
		errOnce sync.Once
		swept   error
	)
	fail := func(err error) {
		errOnce.Do(func() { swept = err })
		job.Cancel()
	}
	shards := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for shard := range shards {
				c, stranded, err := sweepShard(runCtx, shard)
				if err != nil {
					if runCtx.Err() == nil {
						fail(err)
					}
					return
				}
				job.FoldShard(shard, c, stranded)
			}
		}()
	}
feed:
	for _, shard := range pending {
		select {
		case shards <- shard:
		case <-runCtx.Done():
			break feed
		}
	}
	close(shards)
	wg.Wait()

	job.finish(swept, runCtx.Err() != nil && swept == nil)
}

// sourceShards adapts a Source and a Classifier to a ShardFunc: load
// the shard, classify every item, commit the migratable ones. The
// Commit comes last, so a shard canceled or failed before it commits
// nothing.
func sourceShards(src Source, classify Classifier) ShardFunc {
	return func(ctx context.Context, shard int) (Counts, []Stranded, error) {
		items, err := src.Load(ctx, shard)
		if err != nil {
			return Counts{}, nil, fmt.Errorf("migrate: loading shard %d: %w", shard, err)
		}
		var t Tally
		migrated := items[:0]
		for _, it := range items {
			if err := t.Poll(ctx); err != nil {
				return Counts{}, nil, err
			}
			st, err := classify(it.Party, it.Inst)
			if err != nil {
				return Counts{}, nil, fmt.Errorf("migrate: classifying %s/%s: %w", it.Party, it.Inst.ID, err)
			}
			if t.Add(it.Party, it.Inst.ID, st) {
				migrated = append(migrated, it)
			}
		}
		if err := ctx.Err(); err != nil {
			return Counts{}, nil, err
		}
		if err := src.Commit(ctx, shard, migrated); err != nil {
			return Counts{}, nil, fmt.Errorf("migrate: committing shard %d: %w", shard, err)
		}
		return t.Counts, t.Stranded, nil
	}
}
