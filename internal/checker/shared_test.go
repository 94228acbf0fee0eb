package checker_test

import (
	"context"
	"crypto/sha256"
	"slices"
	"sync"
	"testing"

	"deepmc/internal/anacache"
	"deepmc/internal/checker"
	"deepmc/internal/core"
	"deepmc/internal/dsa"
	"deepmc/internal/pmcontract"
	"deepmc/internal/trace"
)

// TestSharedTraceArtifacts drives the trace objects of one shared cache
// artifact from many collectors at once: some goroutines ask for filled
// entries through FunctionTraces while others scan the same traces.
// Under -race this pins the fill-once discipline (a fill never races a
// scan or another fill); the checks pin that every fill matches the
// trace's runs and every seeded scan reproduces the cold report.
func TestSharedTraceArtifacts(t *testing.T) {
	m := core.GenerateApp(core.AppSpec{Name: "shared", Funcs: 30, CallDepth: 3, Seed: 1})
	opts := checker.DefaultOptions(checker.Strict)
	// The whole-heap domain flags every flush, so the scans emit findings.
	opts.Contract = pmcontract.CXLContract(pmcontract.WholeDomain())
	a := dsa.Analyze(m, opts.DSA)
	cold := &checker.Checker{Opts: opts, Analysis: a, Collector: trace.NewCollector(a, opts.Trace)}
	coldRep := cold.CheckModuleParallelCtx(context.Background(), 1)
	if len(coldRep.Warnings) == 0 {
		t.Fatal("cold check found nothing: the scans would not be exercised")
	}
	want := coldRep.String()

	cache, err := anacache.New("")
	if err != nil {
		t.Fatal(err)
	}
	key := func(fn string) anacache.Key { return sha256.Sum256([]byte(fn)) }
	for _, fn := range m.FuncNames() {
		cache.StoreTraces(key(fn), &anacache.TraceArtifact{
			Traces: cold.Collector.Collect(fn), Truncated: cold.Collector.Truncated(fn)})
	}
	seeded := func() *checker.Checker {
		ck := &checker.Checker{Opts: opts, Analysis: a, Collector: trace.NewCollector(a, opts.Trace)}
		for _, fn := range m.FuncNames() {
			art, ok := cache.LookupTraces(key(fn))
			if !ok {
				t.Errorf("%s: no trace artifact", fn)
				continue
			}
			ck.Collector.Seed(fn, art.Traces, art.Truncated)
		}
		return ck
	}

	const goroutines = 6
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ck := seeded()
			if g%2 == 0 {
				if got := ck.CheckModuleParallelCtx(context.Background(), 1).String(); got != want {
					t.Errorf("goroutine %d: seeded scan differs from the cold report", g)
				}
				return
			}
			fns := m.FuncNames()
			for i := range fns {
				fn := fns[(i+g)%len(fns)]
				for _, tr := range ck.Collector.FunctionTraces(fn) {
					var runs []trace.Entry
					tr.Runs(func(run []trace.Entry) bool {
						runs = append(runs, run...)
						return true
					})
					if !slices.Equal(tr.Entries, runs) {
						t.Errorf("goroutine %d: %s: filled entries differ from the trace's runs", g, fn)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}
