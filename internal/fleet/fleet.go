// Package fleet shards batch analysis across failure-independent
// workers behind a coordinator, turning the single-process batch path
// into the paper-scale deployment shape: N shards each holding a hot
// local cache, a shared content-addressed verdict tier underneath
// them, and a scheduler that survives shards dying mid-traffic.
//
// Placement is consistent-hash (package-local ring): a job's name
// picks its shard, so repeated runs land components on the same shard
// and its local cache stays hot.  Liveness is handled downstream of
// placement — dead or breaker-ejected shards are skipped for new
// placements, and work already queued on a shard that dies is drained
// by the other shards' work-stealing, not by re-hashing.
//
// Failure handling runs one circuit breaker per shard (breaker.go): a
// shard that keeps failing work is ejected from routing, health probes
// exercise the half-open transition, and recovery closes the breaker.
// Attributed job failures retry with jittered exponential backoff under
// a bounded budget; executions lost to shard death requeue immediately
// and for free (the shard failed, not the job).  Stragglers are hedged
// onto idle shards — duplicates are harmless because analysis is
// deterministic and completion is first-wins.
//
// The output contract is the whole point: Run's merged result is byte-
// identical to a single-node batch run at any shard count, with any
// kill/restart schedule, because per-job reports are deterministic
// (worker-count independent, warm==cold by the cache gate) and the
// merge is by declaration order, never completion order.
package fleet

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"deepmc/internal/anacache"
	"deepmc/internal/core"
	"deepmc/internal/ir"
	"deepmc/internal/report"
)

// Job is one unit of fleet work: a named module and its analysis
// configuration.  Name is the placement key — stable names keep shard
// caches hot across runs.
//
// Source/Corpus are the job's wire form for HTTP shards: the exact
// PIR text (or built-in corpus name) the module came from.  The HTTP
// transport refuses jobs without one — re-printing a live module
// could shift line numbers and silently break fleet==batch
// byte-identity, so the original bytes travel instead.  It also
// refuses a Config that sets FieldInsensitive or MaxPaths, which
// /analyze cannot carry.  In-process transports ignore Source and
// Corpus and analyze Module directly.
type Job struct {
	Name   string
	Module *ir.Module
	Config core.Config
	Source string
	Corpus string
}

// Config tunes the fleet.  Zero values select the documented defaults.
type Config struct {
	// Shards is the number of failure-independent workers (default 4).
	Shards int
	// CacheDir hosts the shared verdict tier; empty disables the disk
	// layer (shards still share the in-memory tier).
	CacheDir string
	// CacheCap bounds the tier's disk entries (0 = unbounded).
	CacheCap int
	// MaxRetries bounds attributed-failure retries per job (default 2;
	// negative disables retries).  Shard-death requeues are free.
	MaxRetries int
	// RetryBase/RetryMax bound the jittered exponential backoff
	// (defaults 5ms/250ms); RetryMax also caps a server's Retry-After.
	RetryBase time.Duration
	RetryMax  time.Duration
	// HedgeAfter re-dispatches a task still running after this long to
	// an idle shard (default 500ms; negative disables hedging).
	HedgeAfter time.Duration
	// BreakerThreshold/BreakerCooldown tune shard ejection
	// (defaults 3 / 100ms).
	BreakerThreshold int
	BreakerCooldown  time.Duration
	// ProbeEvery is the health-probe cadence (default 50ms).
	ProbeEvery time.Duration
	// Seed drives backoff jitter (and nothing else: output is
	// schedule-independent by construction).
	Seed int64
	// NewTransport overrides shard transport construction, keeping the
	// process boundary abstract (tests; the HTTP transport).  Nil
	// selects the in-process transport over the shared tier.
	NewTransport func(shard int, tier *anacache.Cache) (Transport, error)
}

// tierFlushEvery is the shared verdict tier's write-behind flush
// cadence.
const tierFlushEvery = 200 * time.Millisecond

func (c Config) withDefaults() Config {
	if c.Shards <= 0 {
		c.Shards = 4
	}
	if c.MaxRetries == 0 {
		c.MaxRetries = 2
	} else if c.MaxRetries < 0 {
		c.MaxRetries = 0
	}
	if c.RetryBase <= 0 {
		c.RetryBase = 5 * time.Millisecond
	}
	if c.RetryMax <= 0 {
		c.RetryMax = 250 * time.Millisecond
	}
	if c.HedgeAfter == 0 {
		c.HedgeAfter = 500 * time.Millisecond
	} else if c.HedgeAfter < 0 {
		c.HedgeAfter = 0
	}
	if c.BreakerThreshold <= 0 {
		c.BreakerThreshold = 3
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = 100 * time.Millisecond
	}
	if c.ProbeEvery <= 0 {
		c.ProbeEvery = 50 * time.Millisecond
	}
	return c
}

// Stats counts fleet events across the coordinator's lifetime.
type Stats struct {
	Completed atomic.Uint64
	Retries   atomic.Uint64
	Requeues  atomic.Uint64 // shard-death requeues (free)
	Discarded atomic.Uint64 // partial results thrown away on shard death
	Steals    atomic.Uint64
	Hedges    atomic.Uint64
	Kills     atomic.Uint64
	Restarts  atomic.Uint64
	// NetRequeues counts free requeues caused by connection-class wire
	// failures (refused/reset/timeout/truncated) against HTTP shards.
	NetRequeues atomic.Uint64
	// Corrupt counts responses discarded for failing verification
	// (checksum/framing/parse) — every one of these is a report that
	// was received and NOT trusted.
	Corrupt atomic.Uint64
	// Throttled counts 429 shed responses honored via Retry-After.
	Throttled atomic.Uint64
}

// StatsSnapshot is Stats at a point in time, JSON-ready.
type StatsSnapshot struct {
	Completed   uint64 `json:"completed"`
	Retries     uint64 `json:"retries"`
	Requeues    uint64 `json:"requeues"`
	Discarded   uint64 `json:"discarded"`
	Steals      uint64 `json:"steals"`
	Hedges      uint64 `json:"hedges"`
	Kills       uint64 `json:"kills"`
	Restarts    uint64 `json:"restarts"`
	NetRequeues uint64 `json:"net_requeues"`
	Corrupt     uint64 `json:"corrupt"`
	Throttled   uint64 `json:"throttled"`
}

func (s *Stats) snapshot() StatsSnapshot {
	return StatsSnapshot{
		Completed:   s.Completed.Load(),
		Retries:     s.Retries.Load(),
		Requeues:    s.Requeues.Load(),
		Discarded:   s.Discarded.Load(),
		Steals:      s.Steals.Load(),
		Hedges:      s.Hedges.Load(),
		Kills:       s.Kills.Load(),
		Restarts:    s.Restarts.Load(),
		NetRequeues: s.NetRequeues.Load(),
		Corrupt:     s.Corrupt.Load(),
		Throttled:   s.Throttled.Load(),
	}
}

// Result is one Run's outcome: slices align with the input jobs.
type Result struct {
	Names   []string
	Reports []*report.Report
	Errs    []error
	Stats   StatsSnapshot
}

// Err returns the first per-job error in input order, if any.
func (r *Result) Err() error {
	for i, err := range r.Errs {
		if err != nil {
			return fmt.Errorf("fleet: job %d (%s): %w", i, r.Names[i], err)
		}
	}
	return nil
}

// Render merges the per-job reports in declaration order — the byte
// stream the fleet gate diffs against single-node batch output.
func (r *Result) Render() string {
	var b strings.Builder
	for i, rep := range r.Reports {
		b.WriteString("== ")
		b.WriteString(r.Names[i])
		b.WriteString("\n")
		if rep != nil {
			b.WriteString(rep.String())
		} else if r.Errs[i] != nil {
			b.WriteString("error: ")
			b.WriteString(r.Errs[i].Error())
			b.WriteString("\n")
		}
	}
	return b.String()
}

// shard is one failure domain: a transport plus the context whose
// cancellation is the shard's death.
type shard struct {
	id     int
	gen    int // bumped on restart
	ctx    context.Context
	cancel context.CancelFunc
	tr     Transport
	dead   bool
}

// Fleet coordinates the shards.  Safe for concurrent KillShard /
// RestartShard against an in-progress Run — that interleaving is the
// chaos gate's whole subject.
type Fleet struct {
	cfg  Config
	ring *ring
	// tier is the shared content-addressed verdict store: one lazy
	// cache over Config.CacheDir behind every shard's local cache.
	// Shards read through it on local misses (a verdict computed
	// anywhere warms everywhere) and write behind it on stores; the
	// flush loop batches its deferred disk writes, and stopFlush does
	// the final flush.
	tier      *anacache.Cache
	stopFlush func() error
	breakers  *breakerSet
	stats     Stats

	mu     sync.Mutex
	shards []*shard
	cur    *run // active Run, for restart-spawned workers

	baseCtx context.Context
	stop    context.CancelFunc
	bg      sync.WaitGroup // prober
}

// New builds a fleet per cfg and starts its health prober.  Close it.
func New(cfg Config) (*Fleet, error) {
	cfg = cfg.withDefaults()
	tier, err := anacache.NewLazy(cfg.CacheDir)
	if err != nil {
		return nil, err
	}
	if cfg.CacheCap > 0 {
		tier.SetDiskCap(cfg.CacheCap)
	}
	baseCtx, stop := context.WithCancel(context.Background())
	f := &Fleet{
		cfg:       cfg,
		ring:      newRing(cfg.Shards),
		tier:      tier,
		stopFlush: tier.FlushLoop(tierFlushEvery),
		breakers:  newBreakerSet(cfg.Shards, cfg.BreakerThreshold, cfg.BreakerCooldown),
		shards:    make([]*shard, cfg.Shards),
		baseCtx:   baseCtx,
		stop:      stop,
	}
	for i := range f.shards {
		s, err := f.newShard(i, 0)
		if err != nil {
			stop()
			f.stopFlush()
			return nil, err
		}
		f.shards[i] = s
	}
	f.bg.Add(1)
	go f.prober()
	return f, nil
}

func (f *Fleet) newShard(id, gen int) (*shard, error) {
	tr, err := f.newTransport(id)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(f.baseCtx)
	return &shard{id: id, gen: gen, ctx: ctx, cancel: cancel, tr: tr}, nil
}

func (f *Fleet) newTransport(id int) (Transport, error) {
	if f.cfg.NewTransport != nil {
		return f.cfg.NewTransport(id, f.tier)
	}
	return newLocalTransport(f.tier)
}

// shardLive reports whether shard i accepts new placements: alive and
// not breaker-ejected.
func (f *Fleet) shardLive(i int) bool {
	f.mu.Lock()
	dead := f.shards[i].dead
	f.mu.Unlock()
	return !dead && !f.breakers.Tripped(i)
}

// Run analyzes jobs across the fleet and merges the outcome in input
// order.  Concurrent Runs are serialized by design (one batch at a
// time); Kill/RestartShard may interleave freely.
func (f *Fleet) Run(ctx context.Context, jobs []Job) *Result {
	r := newRun(f, jobs)

	f.mu.Lock()
	f.cur = r
	var workers sync.WaitGroup
	for _, s := range f.shards {
		if !s.dead {
			workers.Add(1)
			go func(s *shard, gen int) {
				defer workers.Done()
				f.worker(s, gen, r)
			}(s, s.gen)
		}
	}
	f.mu.Unlock()

	r.place()

	var hedgeStop chan struct{}
	if f.cfg.HedgeAfter > 0 {
		hedgeStop = make(chan struct{})
		f.bg.Add(1)
		go f.hedger(r, hedgeStop)
	}

	r.wait(ctx)

	if hedgeStop != nil {
		close(hedgeStop)
	}
	f.mu.Lock()
	f.cur = nil
	f.mu.Unlock()
	r.wake()
	workers.Wait()

	return &Result{Names: jobNames(jobs), Reports: r.reports, Errs: r.errs, Stats: f.stats.snapshot()}
}

func jobNames(jobs []Job) []string {
	names := make([]string, len(jobs))
	for i, j := range jobs {
		names[i] = j.Name
	}
	return names
}

// worker is one shard generation's execution loop: pull (or steal) a
// task, run it over the transport, classify the outcome.
func (f *Fleet) worker(s *shard, gen int, r *run) {
	// Wake our next() wait when the shard dies mid-block.
	stopWatch := context.AfterFunc(s.ctx, r.wake)
	defer stopWatch()
	for {
		idx, ok := r.next(s.id, s.ctx)
		if !ok {
			return
		}
		// The analysis context dies with the shard OR with the run —
		// when every task is done (or the run aborts), duplicate
		// executions still in flight are canceled, not awaited.
		actx, acancel := context.WithCancel(s.ctx)
		go func() {
			select {
			case <-r.done:
				acancel()
			case <-actx.Done():
			}
		}()
		rep, err := s.tr.Analyze(actx, r.jobs[idx])
		acancel()
		switch {
		case s.ctx.Err() != nil:
			// Shard killed mid-task.  AnalyzeCtx degrades to a partial
			// report with a nil error on cancellation, so the report is
			// NOT trustworthy here: discard it and requeue — recompute
			// is deterministic, a dropped partial is never visible.
			r.failDead(idx)
			return
		case r.ended():
			// The run finished (or aborted) underneath this execution;
			// whatever it produced is surplus.
			r.drop(idx)
		case err == nil:
			f.breakers.OK(s.id)
			r.complete(idx, rep)
		default:
			f.classifyFailure(s, r, idx, err)
		}
	}
}

// classifyFailure routes a non-nil Analyze error to the scheduler
// decision its class demands (see classify.go for the taxonomy).
// In-process transports produce plain errors, which keep the original
// attributed-failure path.
func (f *Fleet) classifyFailure(s *shard, r *run, idx int, err error) {
	var ne *NetError
	if !errors.As(err, &ne) {
		f.breakers.Fail(s.id)
		r.fail(idx, err)
		return
	}
	switch ne.Class {
	case ErrConn, ErrCorrupt:
		// The shard (or the wire) failed, not the job: feed the breaker
		// — consecutive failures eject the shard from placement and
		// from pulling (see next()) — and requeue for free after a
		// beat, exactly like an in-process shard death.
		f.breakers.Fail(s.id)
		if ne.Class == ErrCorrupt {
			f.stats.Corrupt.Add(1)
		}
		f.stats.NetRequeues.Add(1)
		f.stats.Discarded.Add(1)
		r.failNet(idx, f.cfg.RetryBase)
	case ErrTerminal:
		// The shard judged the job itself bad; no other shard will
		// disagree.  No breaker feed — the shard did its job.
		r.failTerminal(idx, err)
	case ErrThrottle:
		// Load shedding is the admission queue working as designed:
		// budgeted retry honoring the server's Retry-After, breaker
		// untouched.
		f.stats.Throttled.Add(1)
		r.failAfter(idx, err, ne.RetryAfter)
	default: // ErrServer
		f.breakers.Fail(s.id)
		r.failAfter(idx, err, ne.RetryAfter)
	}
}

// KillShard simulates shard death: its context is canceled (in-flight
// work unwinds and is discarded+requeued), its queue is left in place
// for the survivors to steal, and its breaker trips via the prober's
// failed health checks.
func (f *Fleet) KillShard(i int) {
	f.mu.Lock()
	s := f.shards[i]
	if s.dead {
		f.mu.Unlock()
		return
	}
	s.dead = true
	s.cancel()
	cur := f.cur
	f.mu.Unlock()
	f.stats.Kills.Add(1)
	if cur != nil {
		cur.wake()
	}
}

// RestartShard revives a killed shard as a fresh generation: new
// context, new transport with an empty local cache (it re-warms from
// the shared tier).  The shard's breaker is left tripped — the health
// prober's next half-open probe closes it, which is the recovery path
// the chaos gate exercises.
func (f *Fleet) RestartShard(i int) error {
	f.mu.Lock()
	old := f.shards[i]
	if !old.dead {
		f.mu.Unlock()
		return nil
	}
	s, err := f.newShard(i, old.gen+1)
	if err != nil {
		f.mu.Unlock()
		return err
	}
	old.tr.Close()
	f.shards[i] = s
	cur := f.cur
	if cur != nil {
		go f.worker(s, s.gen, cur)
	}
	f.mu.Unlock()
	f.stats.Restarts.Add(1)
	if cur != nil {
		cur.wake()
	}
	return nil
}

// Shards returns the fleet's shard count: Config.Shards, or its default
// when that was not positive.
func (f *Fleet) Shards() int { return f.cfg.Shards }

// TierStats exposes the shared verdict tier's counters.
func (f *Fleet) TierStats() anacache.Stats { return f.tier.Stats() }

// StatsSnapshot returns the fleet's lifetime counters.
func (f *Fleet) StatsSnapshot() StatsSnapshot { return f.stats.snapshot() }

// Close stops the prober, closes every transport, and flushes the
// shared tier so the next fleet warms from this one's work.
func (f *Fleet) Close() error {
	f.stop()
	f.bg.Wait()
	f.mu.Lock()
	for _, s := range f.shards {
		s.cancel()
		s.tr.Close()
	}
	f.mu.Unlock()
	return f.stopFlush()
}

// prober is the fleet's health loop.  Each tick it (a) health-checks
// every shard — a coordinator-side kill flag or a failed transport
// Probe (an HTTP shard's /readyz) both count as unhealthy, and
// consecutive failures trip the breaker and eject the shard from
// placement and pulling — and (b) takes whatever half-open probes the
// breaker set grants, resolving each against the same health check.
// A revived shard (restarted in-process, or a shard *process* brought
// back at the same address) therefore recovers through the genuine
// Open → HalfOpen → Closed path.  Each tick ends by waking the active
// run so workers parked on a tripped breaker re-check.
func (f *Fleet) prober() {
	defer f.bg.Done()
	tick := time.NewTicker(f.cfg.ProbeEvery)
	defer tick.Stop()
	for {
		select {
		case <-f.baseCtx.Done():
			return
		case <-tick.C:
		}
		f.mu.Lock()
		shards := append([]*shard(nil), f.shards...)
		dead := make([]bool, len(shards))
		for i, s := range shards {
			dead[i] = s.dead
		}
		cur := f.cur
		f.mu.Unlock()
		healthy := f.probeAll(shards, dead)
		for i, h := range healthy {
			if !h {
				f.breakers.Fail(i)
			}
		}
		for _, i := range f.breakers.Acquire() {
			if healthy[i] {
				f.breakers.OK(i)
			} else {
				f.breakers.Fail(i)
			}
		}
		if cur != nil {
			cur.wake()
		}
	}
}

// probeAll health-checks every shard concurrently (a blackholed HTTP
// probe must not stall the whole tick) with a bounded per-probe
// deadline.  dead is the caller's under-lock snapshot: shard death is
// racy against probing, and a kill landing mid-tick just means one
// more failed probe next tick.
func (f *Fleet) probeAll(shards []*shard, dead []bool) []bool {
	healthy := make([]bool, len(shards))
	var wg sync.WaitGroup
	for i, s := range shards {
		if dead[i] {
			continue
		}
		wg.Add(1)
		go func(i int, s *shard) {
			defer wg.Done()
			pctx, cancel := context.WithTimeout(f.baseCtx, time.Second)
			defer cancel()
			healthy[i] = s.tr.Probe(pctx) == nil
		}(i, s)
	}
	wg.Wait()
	return healthy
}

// hedger watches the active run for stragglers and re-dispatches them
// onto idle live shards.  First completion wins; the duplicate's bytes
// are identical anyway.
func (f *Fleet) hedger(r *run, stop chan struct{}) {
	defer f.bg.Done()
	period := f.cfg.HedgeAfter / 4
	if period <= 0 {
		period = f.cfg.HedgeAfter
	}
	tick := time.NewTicker(period)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return
		case <-f.baseCtx.Done():
			return
		case <-tick.C:
		}
		idle := -1
		for i := range f.shards {
			if f.shardLive(i) && r.queueEmpty(i) {
				idle = i
				break
			}
		}
		if idle < 0 {
			continue
		}
		for _, idx := range r.stragglers(f.cfg.HedgeAfter) {
			r.hedge(idx, idle)
		}
	}
}
