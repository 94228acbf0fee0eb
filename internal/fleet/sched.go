package fleet

import (
	"context"
	"math/rand"
	"sync"
	"time"

	"deepmc/internal/report"
)

// The run scheduler: per-shard FIFO queues with work-stealing, bounded
// retry with jittered backoff, and first-completion-wins hedging.
//
// Invariants:
//
//   - A task is in exactly one of: queued (on some shard's queue),
//     inflight (one or more executions running), backoff (an AfterFunc
//     will requeue it), or done.  Hedges relax "one execution": a task
//     may be queued *and* inflight, or inflight twice — duplicates are
//     harmless because analysis is deterministic and completion is
//     first-wins.
//   - remaining counts undone tasks; it hits zero exactly once per
//     task regardless of how many executions race to complete it.
//   - Requeues caused by shard death are free: the shard failed, not
//     the task, so they never count against the retry budget.

// taskState tracks one job through the run.
type taskState struct {
	queued   bool      // sitting on some shard's queue
	inflight int       // running executions (hedges may make this 2)
	retries  int       // attributed failures so far
	hedges   int       // hedge copies issued
	started  time.Time // earliest still-running execution's start
	done     bool
}

// run is one Run invocation's mutable state.
type run struct {
	f    *Fleet
	jobs []Job

	mu        sync.Mutex
	cond      *sync.Cond
	queues    [][]int // per-shard FIFO of task indices
	tasks     []taskState
	reports   []*report.Report
	errs      []error
	remaining int
	aborted   bool
	abortErr  error
	rng       *rand.Rand // backoff jitter; guarded by mu

	done     chan struct{} // closed when the run ends (complete or abort)
	doneOnce sync.Once
}

func newRun(f *Fleet, jobs []Job) *run {
	r := &run{
		f:         f,
		jobs:      jobs,
		queues:    make([][]int, len(f.shards)),
		tasks:     make([]taskState, len(jobs)),
		reports:   make([]*report.Report, len(jobs)),
		errs:      make([]error, len(jobs)),
		remaining: len(jobs),
		rng:       rand.New(rand.NewSource(f.cfg.Seed + 0x5eed)),
		done:      make(chan struct{}),
	}
	r.cond = sync.NewCond(&r.mu)
	return r
}

// place performs initial ring placement of every task, skipping dead
// and breaker-ejected shards.
func (r *run) place() {
	r.mu.Lock()
	defer r.mu.Unlock()
	for i, j := range r.jobs {
		s := r.f.ring.ownerLive(j.Name, r.f.shardLive)
		r.queues[s] = append(r.queues[s], i)
		r.tasks[i].queued = true
	}
	r.cond.Broadcast()
}

// next blocks until shard has a task to run (its own queue's front, or
// a steal from the back of the longest other queue), the run finishes,
// or the shard's context dies.  ok=false means the worker should exit.
//
// A shard whose breaker is tripped parks instead of pulling: against
// an HTTP shard whose process died, pulling would spin every queued
// job through a connection failure.  The prober wakes the run each
// tick, so a recovered breaker (half-open probe success) resumes the
// worker promptly.
func (r *run) next(shard int, shardCtx context.Context) (int, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for {
		if r.remaining == 0 || r.aborted || shardCtx.Err() != nil {
			return 0, false
		}
		if !r.f.breakers.Tripped(shard) {
			// Own queue first: preserves placement locality.
			if q := r.queues[shard]; len(q) > 0 {
				idx := q[0]
				r.queues[shard] = q[1:]
				r.startLocked(idx)
				return idx, true
			}
			// Steal from the back of the longest queue (including dead
			// shards' queues — stealing is what drains them).
			victim, best := -1, 0
			for s, q := range r.queues {
				if s != shard && len(q) > best {
					victim, best = s, len(q)
				}
			}
			if victim >= 0 {
				q := r.queues[victim]
				idx := q[len(q)-1]
				r.queues[victim] = q[:len(q)-1]
				r.f.stats.Steals.Add(1)
				r.startLocked(idx)
				return idx, true
			}
		}
		r.cond.Wait()
	}
}

func (r *run) startLocked(idx int) {
	t := &r.tasks[idx]
	t.queued = false
	t.inflight++
	if t.inflight == 1 {
		t.started = time.Now()
	}
}

// complete records a successful execution.  First completion wins;
// late duplicates (hedges, or a racing steal) are dropped on the floor
// because every execution of the same job yields identical bytes.
func (r *run) complete(idx int, rep *report.Report) {
	r.mu.Lock()
	defer r.mu.Unlock()
	t := &r.tasks[idx]
	t.inflight--
	if t.done {
		return
	}
	t.done = true
	r.reports[idx] = rep
	r.remaining--
	r.f.stats.Completed.Add(1)
	if r.remaining == 0 {
		r.finishLocked()
	}
	r.cond.Broadcast()
}

// finishLocked signals run end: in-flight duplicate executions (hedges,
// work on since-revived shards) are canceled rather than awaited.
func (r *run) finishLocked() {
	r.doneOnce.Do(func() { close(r.done) })
}

// drop discards an execution whose run ended underneath it.
func (r *run) drop(idx int) {
	r.mu.Lock()
	r.tasks[idx].inflight--
	r.mu.Unlock()
}

// ended reports whether the run is over (all tasks done, or aborted).
func (r *run) ended() bool {
	select {
	case <-r.done:
		return true
	default:
		return false
	}
}

// fail records an attributed failure: the shard was healthy but the
// job errored.  Within budget the task is requeued after a jittered
// exponential backoff; past it the error becomes the task's outcome.
func (r *run) fail(idx int, err error) { r.failAfter(idx, err, 0) }

// failAfter is fail with an optional server-directed delay: a 429/503
// Retry-After overrides the jittered backoff (after > 0), because the
// server knows its own queue better than our jitter does.  The delay is
// capped at RetryMax, so a hint of hours cannot park the job.
func (r *run) failAfter(idx int, err error, after time.Duration) {
	r.mu.Lock()
	defer r.mu.Unlock()
	t := &r.tasks[idx]
	t.inflight--
	if t.done {
		return
	}
	if t.retries >= r.f.cfg.MaxRetries {
		t.done = true
		r.errs[idx] = err
		r.remaining--
		if r.remaining == 0 {
			r.finishLocked()
		}
		r.cond.Broadcast()
		return
	}
	t.retries++
	r.f.stats.Retries.Add(1)
	d := min(after, r.f.cfg.RetryMax)
	if d <= 0 {
		d = r.backoffLocked(t.retries)
	}
	if t.inflight > 0 || t.queued {
		// A hedge copy is still live; let it carry the task.
		return
	}
	time.AfterFunc(d, func() { r.requeue(idx) })
}

// failTerminal records an authoritative rejection (a 4xx): the job
// itself is bad, no shard will judge it differently, so the error is
// the outcome immediately — no retry budget spent, no breaker fed.
func (r *run) failTerminal(idx int, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	t := &r.tasks[idx]
	t.inflight--
	if t.done {
		return
	}
	t.done = true
	r.errs[idx] = err
	r.remaining--
	if r.remaining == 0 {
		r.finishLocked()
	}
	r.cond.Broadcast()
}

// failNet records an execution lost to a connection-class (or
// corrupt-body) wire failure.  Like failDead the requeue is free —
// the wire failed, not the job — but it waits a beat: an immediate
// requeue against a just-died shard process would cycle through
// another instant connection failure before the breaker trips.
func (r *run) failNet(idx int, delay time.Duration) {
	r.mu.Lock()
	t := &r.tasks[idx]
	t.inflight--
	done, live := t.done, t.inflight > 0 || t.queued
	r.mu.Unlock()
	if done || live {
		return
	}
	time.AfterFunc(delay, func() { r.requeue(idx) })
}

// failDead records an execution lost to shard death.  The shard
// failed, not the task: requeue immediately, outside the retry budget.
func (r *run) failDead(idx int) {
	r.mu.Lock()
	t := &r.tasks[idx]
	t.inflight--
	done, live := t.done, t.inflight > 0 || t.queued
	r.mu.Unlock()
	if done || live {
		return
	}
	r.f.stats.Requeues.Add(1)
	r.f.stats.Discarded.Add(1)
	r.requeue(idx)
}

// requeue puts a not-done task back on the shortest live queue.
func (r *run) requeue(idx int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	t := &r.tasks[idx]
	if t.done || t.queued {
		return
	}
	s := r.shortestLiveLocked()
	r.queues[s] = append(r.queues[s], idx)
	t.queued = true
	r.cond.Broadcast()
}

// hedge issues a duplicate execution of a straggling task onto an idle
// live shard's queue.
func (r *run) hedge(idx, shard int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	t := &r.tasks[idx]
	if t.done || t.queued || t.inflight == 0 || t.hedges >= 2 {
		return
	}
	t.hedges++
	r.f.stats.Hedges.Add(1)
	r.queues[shard] = append(r.queues[shard], idx)
	t.queued = true
	r.cond.Broadcast()
}

// stragglers returns tasks inflight longer than age with no queued
// copy, for the hedging monitor.
func (r *run) stragglers(age time.Duration) []int {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []int
	now := time.Now()
	for i := range r.tasks {
		t := &r.tasks[i]
		if !t.done && !t.queued && t.inflight > 0 && t.hedges < 2 && now.Sub(t.started) >= age {
			out = append(out, i)
		}
	}
	return out
}

// queueEmpty reports whether a shard's queue is drained (hedging only
// targets shards with nothing of their own to do).
func (r *run) queueEmpty(shard int) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.queues[shard]) == 0
}

func (r *run) shortestLiveLocked() int {
	best, bestLen := -1, -1
	for s := range r.queues {
		if !r.f.shardLive(s) {
			continue
		}
		if bestLen < 0 || len(r.queues[s]) < bestLen {
			best, bestLen = s, len(r.queues[s])
		}
	}
	if best < 0 {
		// Every shard is dead or ejected right now.  Park the task on
		// queue 0: a revived or recovered shard (or any survivor's
		// steal) will drain it.
		best = 0
	}
	return best
}

// backoffLocked computes the jittered exponential delay for the n-th
// retry: base·2^(n-1) clamped to max, with ±50% jitter so synchronized
// failures do not retry in lockstep.
func (r *run) backoffLocked(n int) time.Duration {
	d := r.f.cfg.RetryBase << uint(n-1)
	if d > r.f.cfg.RetryMax || d <= 0 {
		d = r.f.cfg.RetryMax
	}
	half := int64(d) / 2
	return time.Duration(half + r.rng.Int63n(half+1))
}

// wait blocks until every task is done or ctx ends.  On ctx end the
// run aborts: workers drain out and undone tasks report ctx's error.
func (r *run) wait(ctx context.Context) {
	stop := make(chan struct{})
	go func() {
		select {
		case <-ctx.Done():
			r.mu.Lock()
			r.aborted = true
			r.abortErr = ctx.Err()
			r.cond.Broadcast()
			r.mu.Unlock()
		case <-stop:
		}
	}()
	r.mu.Lock()
	for r.remaining > 0 && !r.aborted {
		r.cond.Wait()
	}
	if r.aborted {
		// Mark undone tasks terminally failed so late completions from
		// still-running executions are dropped instead of racing the
		// caller's read of the result slices.
		for i := range r.tasks {
			if !r.tasks[i].done {
				r.tasks[i].done = true
				r.errs[i] = r.abortErr
			}
		}
		r.remaining = 0
		r.finishLocked()
	}
	r.mu.Unlock()
	close(stop)
}

// wake nudges every parked worker (shard death/revival changes what
// next() can return).
func (r *run) wake() {
	r.mu.Lock()
	r.cond.Broadcast()
	r.mu.Unlock()
}
