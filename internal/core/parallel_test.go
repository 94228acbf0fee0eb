package core

import (
	"context"
	"strings"
	"sync"
	"testing"

	"deepmc/internal/corpus"
	"deepmc/internal/ir"
)

func modelName(p *corpus.Program) string {
	return p.Model.String()
}

// TestParallelMatchesSerial is the determinism gate for the parallel
// pipeline: the full corpus, analyzed at Workers=1, 2 and 8, must yield
// byte-identical sorted warning sets.  Ten iterations (each with a
// fresh parse, fresh DSA and fresh goroutine interleavings) shake out
// scheduling- and map-order-dependent behavior.
func TestParallelMatchesSerial(t *testing.T) {
	progs := corpus.All()
	baseline := make(map[string]string, len(progs))
	for _, p := range progs {
		rep, err := Analyze(mustModule(t, p), Config{Model: modelName(p), Workers: 1})
		if err != nil {
			t.Fatalf("%s: serial analysis failed: %v", p.Name, err)
		}
		var b strings.Builder
		b.WriteString(rep.String())
		baseline[p.Name] = b.String()
		if len(rep.Warnings) == 0 {
			t.Fatalf("%s: serial run found no warnings; comparison would be vacuous", p.Name)
		}
	}
	for iter := 0; iter < 10; iter++ {
		for _, p := range progs {
			for _, workers := range []int{1, 2, 8} {
				rep, err := Analyze(mustModule(t, p), Config{Model: modelName(p), Workers: workers})
				if err != nil {
					t.Fatalf("iter %d %s workers=%d: %v", iter, p.Name, workers, err)
				}
				if got := rep.String(); got != baseline[p.Name] {
					t.Fatalf("iter %d %s workers=%d: report diverged from serial\n--- serial:\n%s--- parallel:\n%s",
						iter, p.Name, workers, baseline[p.Name], got)
				}
			}
		}
	}
}

// TestAnalyzeJobsMatchesSequential pins the batch entry point: reports
// align with the job order and equal per-module Analyze results.
func TestAnalyzeJobsMatchesSequential(t *testing.T) {
	progs := corpus.All()
	jobs := make([]Job, len(progs))
	want := make([]string, len(progs))
	for i, p := range progs {
		jobs[i] = Job{Module: mustModule(t, p), Config: Config{Model: modelName(p), Workers: 2}}
		rep, err := Analyze(mustModule(t, p), Config{Model: modelName(p), Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		want[i] = rep.String()
	}
	for _, workers := range []int{1, 4, 0, -2} {
		reps, errs := AnalyzeJobs(context.Background(), jobs, workers)
		if len(reps) != len(jobs) || len(errs) != len(jobs) {
			t.Fatalf("workers=%d: got %d reports, %d errors for %d jobs", workers, len(reps), len(errs), len(jobs))
		}
		for i, rep := range reps {
			if errs[i] != nil {
				t.Fatalf("workers=%d: job %d (%s): %v", workers, i, progs[i].Name, errs[i])
			}
			if rep.String() != want[i] {
				t.Errorf("workers=%d: job %d (%s) report differs from sequential run", workers, i, progs[i].Name)
			}
		}
	}
}

// TestAnalyzeJobsErrorsAlignWithJobs pins the per-job error contract:
// every failing job's error lands in its own slot (in input order), and
// healthy slots still carry their reports.
func TestAnalyzeJobsErrorsAlignWithJobs(t *testing.T) {
	good := mustModule(t, corpus.PMDK())
	jobs := []Job{
		{Module: good, Config: Config{Model: "strict"}},
		{Module: good, Config: Config{Model: "bogus-a"}},
		{Module: good, Config: Config{Model: "bogus-b"}},
	}
	reps, errs := AnalyzeJobs(context.Background(), jobs, 4)
	if errs[0] != nil || reps[0] == nil {
		t.Errorf("healthy job lost its report: %v", errs[0])
	}
	for i, want := range []string{"", "bogus-a", "bogus-b"} {
		if want == "" {
			continue
		}
		if errs[i] == nil || !strings.Contains(errs[i].Error(), want) {
			t.Errorf("job %d: error %v, want one naming %q", i, errs[i], want)
		}
		if reps[i] != nil {
			t.Errorf("job %d: failing job should have a nil report", i)
		}
	}
}

// TestWorkersConfigResolution pins the Workers defaulting rules.
func TestWorkersConfigResolution(t *testing.T) {
	if got := (Config{}).workers(); got < 1 {
		t.Errorf("default workers = %d, want >= 1 (GOMAXPROCS)", got)
	}
	if got := (Config{Workers: -3}).workers(); got != 1 {
		t.Errorf("negative workers resolved to %d, want 1", got)
	}
	if got := (Config{Workers: 7}).workers(); got != 7 {
		t.Errorf("explicit workers resolved to %d, want 7", got)
	}
}

// TestConcurrentAnalysesShareParsedModule runs four analyses of one
// parsed module at once, as fleet's in-process hedging and serve's
// corpus targets do.  The function opens with a label, so the parser
// drops its unused implicit entry block, and it has no branch, so Verify
// never looks a block up: the block index must come out of Parse built,
// or the analyses' first lookups race to build it (seen by `go test
// -race`).
func TestConcurrentAnalysesShareParsedModule(t *testing.T) {
	const src = `module shared

type rec struct {
	x: int
}

func g(p: *rec) {
	store %p.x, 1 @3
	ret
}

func f(x: *rec) {
start:
	call g(%x) @10
	ret
}
`
	m, err := ir.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := ir.Verify(m); err != nil {
		t.Fatal(err)
	}
	want, err := Analyze(m, Config{})
	if err != nil {
		t.Fatal(err)
	}
	// A fresh parse: the analysis above has looked blocks up in m.
	m, err = ir.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := ir.Verify(m); err != nil {
		t.Fatal(err)
	}
	reps := make([]string, 4)
	errs := make([]error, 4)
	var wg sync.WaitGroup
	for i := range reps {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rep, err := Analyze(m, Config{Workers: 1})
			if err == nil {
				reps[i] = rep.String()
			}
			errs[i] = err
		}(i)
	}
	wg.Wait()
	for i := range reps {
		if errs[i] != nil {
			t.Fatalf("analysis %d: %v", i, errs[i])
		}
		if reps[i] != want.String() {
			t.Errorf("analysis %d differs:\n%s\nwant:\n%s", i, reps[i], want.String())
		}
	}
}
