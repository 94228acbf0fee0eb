package core

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"deepmc/internal/corpus"
	"deepmc/internal/ir"
)

// spinSrc is a PIR program whose main loops long enough that any
// cancellation test can interrupt it mid-run: each iteration stores,
// flushes and fences one persistent field, driving the dynamic tracker
// and the crash planner through millions of persist-relevant steps.
const spinSrc = `
module spin

type cell struct {
	n: int
	v: int
}

func main() {
	file "spin.c"
	%c = alloc cell
	%p = palloc cell
	store %c.n, 50000000
	br loop
loop:
	%i = load %c.n
	%z = lt %i, 1
	condbr %z, done, body
body:
	store %p.v, %i   @10
	flush %p.v       @11
	fence            @12
	%d = sub %i, 1
	store %c.n, %d
	br loop
done:
	ret
}
`

func spinModule(t *testing.T) *ir.Module {
	t.Helper()
	m, err := ir.Parse(spinSrc)
	if err != nil {
		t.Fatal(err)
	}
	if err := ir.Verify(m); err != nil {
		t.Fatal(err)
	}
	return m
}

// leakCheck samples the goroutine count before the test body and fails
// if it has grown afterwards (with settle retries — the runtime needs a
// moment to reap workers).  goleak is unavailable, so this is the
// counting harness standing in for it.
func leakCheck(t *testing.T) func() {
	t.Helper()
	before := runtime.NumGoroutine()
	return func() {
		for i := 0; i < 50; i++ {
			if runtime.NumGoroutine() <= before {
				return
			}
			time.Sleep(10 * time.Millisecond)
		}
		t.Errorf("goroutine leak: %d before, %d after", before, runtime.NumGoroutine())
	}
}

// TestRunDynamicCancelMidRun cancels the dynamic tracker mid-loop and
// requires a fast return carrying a partial report (findings so far
// plus a skip annotation), not an error and not a hang.
func TestRunDynamicCancelMidRun(t *testing.T) {
	defer leakCheck(t)()
	m := spinModule(t)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	rep, sched, err := RunDynamic(ctx, m, Config{}, "main", nil)
	elapsed := time.Since(start)
	if err != nil {
		t.Fatalf("cancelled run returned error: %v", err)
	}
	if sched != nil {
		t.Fatal("no faults configured but a schedule came back")
	}
	if elapsed > time.Second {
		t.Fatalf("cancelled run took %v, want <1s", elapsed)
	}
	if !rep.Partial() {
		t.Fatal("cancelled run did not mark the report partial")
	}
	found := false
	for _, s := range rep.Skipped {
		if s.Subject == "main" && strings.Contains(s.Reason, "canceled") {
			found = true
		}
	}
	if !found {
		t.Fatalf("no cancellation skip annotation: %v", rep.Skipped)
	}
}

// TestAnalyzeCtxDeadline runs static analysis of a real corpus module
// under an immediately-expired deadline: the report must come back
// partial (trace collection stops forking, unscanned functions are
// annotated) within a second, with no error.
func TestAnalyzeCtxDeadline(t *testing.T) {
	defer leakCheck(t)()
	m := mustModule(t, corpus.PMDK())
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	rep, err := AnalyzeCtx(ctx, m, Config{Workers: 4})
	if err != nil {
		t.Fatalf("AnalyzeCtx: %v", err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("pre-cancelled analysis took %v, want <1s", elapsed)
	}
	if !rep.Partial() {
		t.Fatal("pre-cancelled analysis produced a complete report")
	}
	// Every target function must be accounted for as skipped.
	if len(rep.Skipped) == 0 {
		t.Fatal("no skip annotations on a cancelled run")
	}
}

// TestAnalyzeCtxBackgroundMatchesAnalyze pins the zero-degradation
// path: with a background context the hardened pipeline is
// byte-identical to the plain one.
func TestAnalyzeCtxBackgroundMatchesAnalyze(t *testing.T) {
	m := mustModule(t, corpus.PMFS())
	plain, err := Analyze(m, Config{})
	if err != nil {
		t.Fatal(err)
	}
	ctxed, err := AnalyzeCtx(context.Background(), m, Config{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if plain.String() != ctxed.String() {
		t.Fatalf("hardened pipeline diverged:\n%s\nvs\n%s", plain, ctxed)
	}
}

// TestAnalyzeJobsCtxPartialResults checks per-job isolation: one job
// with an absurdly short module timeout degrades to a partial report
// (or a deadline error) while its siblings complete normally.
func TestAnalyzeJobsCtxPartialResults(t *testing.T) {
	defer leakCheck(t)()
	slow := mustModule(t, corpus.PMDK())
	fast := mustModule(t, corpus.Mnemosyne())
	jobs := []Job{
		{Module: slow, Config: Config{ModuleTimeout: time.Nanosecond}},
		{Module: fast, Config: Config{}},
	}
	reps, errs := AnalyzeJobs(context.Background(), jobs, 2)
	if len(reps) != 2 || len(errs) != 2 {
		t.Fatalf("got %d reports, %d errors", len(reps), len(errs))
	}
	if reps[0] != nil && !reps[0].Partial() {
		t.Error("nanosecond-deadline job produced a complete report")
	}
	if reps[0] == nil && !errors.Is(errs[0], context.DeadlineExceeded) {
		t.Errorf("deadline job: nil report with error %v", errs[0])
	}
	if errs[1] != nil || reps[1] == nil || reps[1].Partial() {
		t.Errorf("sibling job degraded too: rep=%v err=%v", reps[1], errs[1])
	}
	if len(reps[1].Warnings) == 0 {
		t.Error("sibling corpus module reported no warnings")
	}
}

// TestAnalyzeJobsCtxPanicIsolation feeds one poisoned job (nil module)
// into a batch and requires the panic to surface as that job's error
// while the rest complete.
func TestAnalyzeJobsCtxPanicIsolation(t *testing.T) {
	defer leakCheck(t)()
	good := mustModule(t, corpus.Mnemosyne())
	jobs := []Job{
		{Module: nil, Config: Config{}},
		{Module: good, Config: Config{}},
	}
	reps, errs := AnalyzeJobs(context.Background(), jobs, 2)
	if errs[0] == nil {
		t.Error("nil-module job reported no error")
	}
	if errs[1] != nil || reps[1] == nil {
		t.Errorf("healthy job failed alongside: %v", errs[1])
	}
}
