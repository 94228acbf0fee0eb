package core

import (
	"context"
	"strings"
	"testing"

	"deepmc/internal/corpus"
	"deepmc/internal/ir"
	"deepmc/internal/report"
)

func TestAnalyzeSourceWithModelFlag(t *testing.T) {
	src := `
module m

type o struct {
	a: int
}

func f() {
	%p = palloc o
	store %p.a, 1 @5
	fence         @6
	ret
}
`
	rep, err := analyzeSource(src, Config{Model: "strict"})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Warnings) == 0 {
		t.Error("unflushed write not reported")
	}
	if _, err := analyzeSource(src, Config{Model: "bogus"}); err == nil {
		t.Error("bogus model accepted")
	}
	if _, err := analyzeSource("not pir", Config{}); err == nil {
		t.Error("parse error not surfaced")
	}
}

func TestDefaultModelIsStrict(t *testing.T) {
	rep, err := analyzeSource(`
module m

type o struct {
	a: int
}

func f() {
	%p = palloc o
	store %p.a, 1 @3
	flush %p.a    @4
	ret           @5
}
`, Config{})
	if err != nil {
		t.Fatal(err)
	}
	// Strict flags the missing trailing barrier.
	found := false
	for _, w := range rep.Warnings {
		if w.Rule == report.RuleMissingBarrier {
			found = true
		}
	}
	if !found {
		t.Errorf("default model did not apply strict rules:\n%s", rep)
	}
}

func TestCheckCombinesStaticAndDynamic(t *testing.T) {
	src := `
module m

type o struct {
	a: int
}

func main() {
	%p = palloc o
	strandbegin 1  @10
	store %p.a, 1  @11
	flush %p.a     @12
	fence          @12
	strandend 1    @13
	strandbegin 2  @14
	store %p.a, 2  @15
	flush %p.a     @16
	fence          @16
	strandend 2    @17
	ret
}
`
	m := ir.MustParse(src)
	cfg := Config{Model: "strand"}
	rep, err := Analyze(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The Figure 8 pipeline: the dynamic report merges into the static
	// one.
	dyn, _, err := RunDynamic(context.Background(), m, cfg, "main", nil)
	if err != nil {
		t.Fatal(err)
	}
	rep.Merge(dyn)
	rep.Sort()
	// Static and dynamic find the same defect; the merged report
	// deduplicates it to one warning.
	found := 0
	for _, w := range rep.Warnings {
		if w.Rule == report.RuleStrandDependence {
			found++
		}
	}
	if found != 1 {
		t.Errorf("strand WAW warnings = %d, want 1 (deduplicated):\n%s", found, rep)
	}
	// Running the dynamic analysis alone shows its own report.
	dyn, _, err = RunDynamic(context.Background(), m, Config{}, "main", nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(dyn.Warnings) != 1 || !dyn.Warnings[0].Dynamic {
		t.Errorf("dynamic-only report wrong:\n%s", dyn)
	}
}

func TestGenerateAppIsWellFormedAndMostlyClean(t *testing.T) {
	for _, spec := range AppSpecs() {
		spec.Funcs = 40 // keep the test quick
		m := GenerateApp(spec)
		if err := ir.Verify(m); err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		rep, err := Analyze(m, Config{Model: "strict"})
		if err != nil {
			t.Fatal(err)
		}
		// The generator emits persistency-correct code; a handful of
		// incidental warnings from merged traces is acceptable, a flood
		// is a generator bug.
		if len(rep.Warnings) > spec.Funcs/4 {
			t.Errorf("%s: generated app produced %d warnings", spec.Name, len(rep.Warnings))
		}
	}
}

func TestGenerateAppDeterministic(t *testing.T) {
	a := ir.Print(GenerateApp(AppSpec{Name: "x", Funcs: 20, CallDepth: 2, Seed: 9}))
	b := ir.Print(GenerateApp(AppSpec{Name: "x", Funcs: 20, CallDepth: 2, Seed: 9}))
	if a != b {
		t.Error("generation not deterministic")
	}
	if !strings.Contains(a, "txbegin") || !strings.Contains(a, "palloc") {
		t.Error("generated app misses expected constructs")
	}
}

func TestTracesAccessor(t *testing.T) {
	m := mustModule(t, corpus.PMDK())
	ts, err := Traces(m, Config{Model: "strict"}, "demo_btree")
	if err != nil {
		t.Fatal(err)
	}
	if len(ts) == 0 {
		t.Error("no traces for demo_btree")
	}
}
