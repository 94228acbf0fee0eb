package fleet

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"deepmc/internal/anacache"
	"deepmc/internal/core"
	"deepmc/internal/corpus"
	"deepmc/internal/report"
)

// testJobs builds a deterministic mixed workload: the four corpus
// programs plus n small generated apps.
func testJobs(t *testing.T, n int) []Job {
	t.Helper()
	var jobs []Job
	for _, p := range corpus.All() {
		m, err := p.Module()
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, Job{
			Name:   p.Name,
			Module: m,
			Config: core.Config{Model: p.Model.String(), Workers: 1},
		})
	}
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("app-%02d", i)
		m := core.GenerateApp(core.AppSpec{Name: name, Funcs: 10 + i%7, CallDepth: 2, Seed: int64(1000 + i)})
		jobs = append(jobs, Job{
			Name:   name,
			Module: m,
			Config: core.Config{Model: "epoch", AllFunctions: true, Workers: 1},
		})
	}
	return jobs
}

// batchRender is the single-node reference: the same jobs analyzed
// serially with no cache, rendered in declaration order.
func batchRender(t *testing.T, jobs []Job) string {
	t.Helper()
	var b strings.Builder
	for _, j := range jobs {
		rep, err := core.AnalyzeCtx(context.Background(), j.Module, j.Config)
		if err != nil {
			t.Fatalf("batch %s: %v", j.Name, err)
		}
		b.WriteString("== ")
		b.WriteString(j.Name)
		b.WriteString("\n")
		b.WriteString(rep.String())
	}
	return b.String()
}

func TestRingDeterministicAndLiveAware(t *testing.T) {
	r := newRing(8)
	names := []string{"PMDK", "PMFS", "NVM-Direct", "Mnemosyne", "app-0", "app-1"}
	for _, n := range names {
		a, b := r.owner(n), r.owner(n)
		if a != b {
			t.Fatalf("owner(%s) not deterministic: %d vs %d", n, a, b)
		}
		if a < 0 || a >= 8 {
			t.Fatalf("owner(%s) out of range: %d", n, a)
		}
	}
	// With the raw owner declared dead, ownerLive must pick a different
	// live shard, deterministically.
	for _, n := range names {
		deadShard := r.owner(n)
		live := func(s int) bool { return s != deadShard }
		got := r.ownerLive(n, live)
		if got == deadShard {
			t.Fatalf("ownerLive(%s) returned the dead shard %d", n, got)
		}
		if got != r.ownerLive(n, live) {
			t.Fatalf("ownerLive(%s) not deterministic", n)
		}
	}
	// All shards spread across enough names: no shard owns everything.
	owners := map[int]bool{}
	for i := 0; i < 64; i++ {
		owners[r.owner(fmt.Sprintf("mod-%d", i))] = true
	}
	if len(owners) < 4 {
		t.Fatalf("64 names landed on only %d of 8 shards", len(owners))
	}
}

// TestFleetMatchesBatch: fleet output is byte-identical to single-node
// batch output at several shard counts, warm or cold; a zero shard
// count runs, and reports, the default of 4.
func TestFleetMatchesBatch(t *testing.T) {
	jobs := testJobs(t, 8)
	ref := batchRender(t, jobs)
	for _, shards := range []int{0, 1, 3, 8} {
		f, err := New(Config{Shards: shards, CacheDir: t.TempDir(), Seed: int64(shards)})
		if err != nil {
			t.Fatal(err)
		}
		want := shards
		if want == 0 {
			want = 4
		}
		if got := f.Shards(); got != want {
			t.Fatalf("Config.Shards=%d: fleet reports %d shards, want %d", shards, got, want)
		}
		for round := 0; round < 2; round++ { // cold then tier-warm
			res := f.Run(context.Background(), jobs)
			if err := res.Err(); err != nil {
				t.Fatalf("shards=%d round=%d: %v", shards, round, err)
			}
			if got := res.Render(); got != ref {
				t.Fatalf("shards=%d round=%d: fleet output diverges from batch (%d vs %d bytes)",
					shards, round, len(got), len(ref))
			}
		}
		if err := f.Close(); err != nil {
			t.Fatalf("close: %v", err)
		}
	}
}

// TestFleetKillRestartByteIdentity: shards die and revive under
// traffic; the merged output still matches batch exactly and no
// acknowledged job is dropped.
func TestFleetKillRestartByteIdentity(t *testing.T) {
	jobs := testJobs(t, 16)
	ref := batchRender(t, jobs)
	f, err := New(Config{Shards: 4, CacheDir: t.TempDir(), Seed: 7, ProbeEvery: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	done := make(chan *Result, 1)
	go func() { done <- f.Run(context.Background(), jobs) }()

	rng := rand.New(rand.NewSource(7))
	killed := 0
	for {
		select {
		case res := <-done:
			if killed == 0 {
				t.Log("run finished before any kill landed; rerunning is still a valid check")
			}
			if err := res.Err(); err != nil {
				t.Fatalf("kill/restart run failed: %v", err)
			}
			if got := res.Render(); got != ref {
				t.Fatalf("kill/restart output diverges from batch (%d vs %d bytes)", len(got), len(ref))
			}
			st := f.StatsSnapshot()
			if st.Kills != uint64(killed) {
				t.Fatalf("kills recorded %d, performed %d", st.Kills, killed)
			}
			return
		default:
		}
		s := rng.Intn(4)
		f.KillShard(s)
		killed++
		time.Sleep(8 * time.Millisecond)
		if err := f.RestartShard(s); err != nil {
			t.Fatal(err)
		}
		time.Sleep(8 * time.Millisecond)
	}
}

// TestFleetTotalOutageRecovery: every shard dies at once mid-run; the
// run parks, revived shards drain it, and the bytes still match.
func TestFleetTotalOutageRecovery(t *testing.T) {
	jobs := testJobs(t, 12)
	ref := batchRender(t, jobs)
	f, err := New(Config{Shards: 3, Seed: 3, ProbeEvery: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	done := make(chan *Result, 1)
	go func() { done <- f.Run(context.Background(), jobs) }()
	time.Sleep(5 * time.Millisecond)
	for i := 0; i < 3; i++ {
		f.KillShard(i)
	}
	time.Sleep(20 * time.Millisecond)
	for i := 0; i < 3; i++ {
		if err := f.RestartShard(i); err != nil {
			t.Fatal(err)
		}
	}
	select {
	case res := <-done:
		if err := res.Err(); err != nil {
			t.Fatalf("post-outage run failed: %v", err)
		}
		if got := res.Render(); got != ref {
			t.Fatal("post-outage output diverges from batch")
		}
	case <-time.After(60 * time.Second):
		t.Fatal("run did not recover from total outage")
	}
}

// flakyTransport fails each job's first failN executions with an
// attributed error, then delegates to the real local transport.
type flakyTransport struct {
	real  Transport
	failN int
	mu    sync.Mutex
	seen  map[string]int
}

func (t *flakyTransport) Analyze(ctx context.Context, job Job) (*report.Report, error) {
	t.mu.Lock()
	t.seen[job.Name]++
	n := t.seen[job.Name]
	t.mu.Unlock()
	if n <= t.failN {
		return nil, fmt.Errorf("transient failure %d for %s", n, job.Name)
	}
	return t.real.Analyze(ctx, job)
}

func (t *flakyTransport) Probe(ctx context.Context) error { return nil }

func (t *flakyTransport) Close() error { return t.real.Close() }

// TestFleetRetriesTransientFailures: jobs that fail twice then succeed
// complete within the default retry budget, byte-identically.
func TestFleetRetriesTransientFailures(t *testing.T) {
	jobs := testJobs(t, 6)
	ref := batchRender(t, jobs)
	shared := &flakyTransport{failN: 2, seen: map[string]int{}}
	f, err := New(Config{
		Shards:     2,
		Seed:       11,
		RetryBase:  time.Millisecond,
		RetryMax:   4 * time.Millisecond,
		HedgeAfter: -1, // isolate the retry path from hedging
		NewTransport: func(shard int, tier *anacache.Cache) (Transport, error) {
			real, err := newLocalTransport(tier)
			if err != nil {
				return nil, err
			}
			shared.real = real
			return shared, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	res := f.Run(context.Background(), jobs)
	if err := res.Err(); err != nil {
		t.Fatalf("transient failures exhausted the retry budget: %v", err)
	}
	if res.Render() != ref {
		t.Fatal("retried run diverges from batch")
	}
	if st := f.StatsSnapshot(); st.Retries < uint64(2*len(jobs)) {
		t.Fatalf("expected >= %d retries, got %d", 2*len(jobs), st.Retries)
	}
}

// TestFleetRetryBudgetExhaustion: a job that always fails surfaces its
// error after MaxRetries+1 attempts without poisoning its siblings.
func TestFleetRetryBudgetExhaustion(t *testing.T) {
	jobs := testJobs(t, 4)
	poison := jobs[5].Name
	var attempts int
	var mu sync.Mutex
	f, err := New(Config{
		Shards:     2,
		MaxRetries: 2,
		RetryBase:  time.Millisecond,
		RetryMax:   4 * time.Millisecond,
		HedgeAfter: -1,
		NewTransport: func(shard int, tier *anacache.Cache) (Transport, error) {
			real, err := newLocalTransport(tier)
			if err != nil {
				return nil, err
			}
			return transportFunc(func(ctx context.Context, job Job) (*report.Report, error) {
				if job.Name == poison {
					mu.Lock()
					attempts++
					mu.Unlock()
					return nil, fmt.Errorf("permanent failure")
				}
				return real.Analyze(ctx, job)
			}), nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	res := f.Run(context.Background(), jobs)
	if res.Errs[5] == nil || !strings.Contains(res.Errs[5].Error(), "permanent failure") {
		t.Fatalf("poisoned job's error missing: %v", res.Errs[5])
	}
	for i, err := range res.Errs {
		if i != 5 && err != nil {
			t.Fatalf("sibling job %d poisoned: %v", i, err)
		}
	}
	mu.Lock()
	got := attempts
	mu.Unlock()
	if got != 3 { // initial + MaxRetries
		t.Fatalf("poisoned job attempted %d times, want 3", got)
	}
}

// transportFunc adapts a function to Transport for tests.
type transportFunc func(ctx context.Context, job Job) (*report.Report, error)

func (f transportFunc) Analyze(ctx context.Context, job Job) (*report.Report, error) {
	return f(ctx, job)
}
func (f transportFunc) Probe(ctx context.Context) error { return nil }

func (f transportFunc) Close() error { return nil }

// TestFleetHedgesStragglers: a shard that stalls on one job does not
// stall the run — the straggler is hedged onto an idle shard and the
// first completion wins.
func TestFleetHedgesStragglers(t *testing.T) {
	jobs := testJobs(t, 6)
	ref := batchRender(t, jobs)
	slow := jobs[0].Name
	var stallShard = -1
	var mu sync.Mutex
	f, err := New(Config{
		Shards:     3,
		Seed:       5,
		HedgeAfter: 25 * time.Millisecond,
		NewTransport: func(shard int, tier *anacache.Cache) (Transport, error) {
			real, err := newLocalTransport(tier)
			if err != nil {
				return nil, err
			}
			return transportFunc(func(ctx context.Context, job Job) (*report.Report, error) {
				mu.Lock()
				stall := job.Name == slow && (stallShard < 0 || stallShard == shard)
				if stall {
					stallShard = shard
				}
				mu.Unlock()
				if stall {
					// The first shard to receive the slow job stalls on
					// it (bounded, ctx-aware) — only a hedge can finish
					// the job promptly.
					select {
					case <-time.After(700 * time.Millisecond):
					case <-ctx.Done():
						return nil, ctx.Err()
					}
				}
				return real.Analyze(ctx, job)
			}), nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	start := time.Now()
	res := f.Run(context.Background(), jobs)
	if err := res.Err(); err != nil {
		t.Fatalf("hedged run failed: %v", err)
	}
	if res.Render() != ref {
		t.Fatal("hedged run diverges from batch")
	}
	if st := f.StatsSnapshot(); st.Hedges == 0 {
		t.Fatalf("stalled straggler was never hedged (took %v)", time.Since(start))
	}
}

// TestFleetBreakerEjectsAndRecovers: a dead shard's breaker trips via
// failed health probes (ejecting it from placement) and closes again
// through a real half-open probe after restart.
func TestFleetBreakerEjectsAndRecovers(t *testing.T) {
	f, err := New(Config{
		Shards:           3,
		BreakerThreshold: 2,
		BreakerCooldown:  20 * time.Millisecond,
		ProbeEvery:       5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	f.KillShard(1)
	if f.shardLive(1) {
		t.Fatal("killed shard still live for placement")
	}
	// The prober's failed health checks must trip the breaker (dead
	// flag alone already excludes the shard; the breaker is what keeps
	// it excluded across the restart until a probe succeeds).
	deadline := time.Now().Add(2 * time.Second)
	for !f.breakers.Tripped(1) {
		if time.Now().After(deadline) {
			t.Fatal("dead shard's breaker never tripped")
		}
		time.Sleep(5 * time.Millisecond)
	}

	if err := f.RestartShard(1); err != nil {
		t.Fatal(err)
	}
	for !f.shardLive(1) {
		if time.Now().After(deadline) {
			t.Fatal("restarted shard never recovered through half-open")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if st := f.StatsSnapshot(); st.Kills != 1 || st.Restarts != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestFleetSharedTierWarmsAcrossFleets: a second fleet over the same
// cache directory serves verdicts from the tier the first one flushed.
func TestFleetSharedTierWarmsAcrossFleets(t *testing.T) {
	dir := t.TempDir()
	jobs := testJobs(t, 4)

	f1, err := New(Config{Shards: 2, CacheDir: dir, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	res := f1.Run(context.Background(), jobs)
	if err := res.Err(); err != nil {
		t.Fatal(err)
	}
	ref := res.Render()
	if err := f1.Close(); err != nil { // flushes the tier
		t.Fatal(err)
	}

	f2, err := New(Config{Shards: 2, CacheDir: dir, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer f2.Close()
	res2 := f2.Run(context.Background(), jobs)
	if err := res2.Err(); err != nil {
		t.Fatal(err)
	}
	if res2.Render() != ref {
		t.Fatal("tier-warm run diverges from cold run")
	}
	if ts := f2.TierStats(); ts.VerdictHits == 0 {
		t.Fatalf("second fleet never hit the shared tier: %+v", ts)
	}
}

// TestFleetRunCancellation: canceling Run's context aborts promptly;
// undone jobs carry the context error, finished ones keep reports.
func TestFleetRunCancellation(t *testing.T) {
	jobs := testJobs(t, 4)
	block := make(chan struct{})
	f, err := New(Config{
		Shards:     2,
		HedgeAfter: -1,
		NewTransport: func(shard int, tier *anacache.Cache) (Transport, error) {
			return transportFunc(func(ctx context.Context, job Job) (*report.Report, error) {
				select {
				case <-block:
					return report.New(), nil
				case <-ctx.Done():
					return nil, ctx.Err()
				}
			}), nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	res := f.Run(ctx, jobs)
	hasErr := false
	for _, e := range res.Errs {
		if e != nil {
			hasErr = true
		}
	}
	if !hasErr {
		t.Fatal("canceled run reported no errors")
	}
	close(block)
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}
