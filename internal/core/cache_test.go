package core

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"deepmc/internal/anacache"
	"deepmc/internal/ir"
	"deepmc/internal/report"
)

// tenFuncSrc builds a module of n independent root functions, each with
// its own persistent object and a deliberate unflushed write (so every
// function contributes one warning and one verdict-cache entry).
func tenFuncSrc(n int, mutated string) string {
	var b strings.Builder
	b.WriteString("module ten\n\ntype obj struct {\n\tval: int\n}\n")
	for i := 0; i < n; i++ {
		val := i + 1
		if fmt.Sprintf("f%d", i) == mutated {
			val = 99
		}
		fmt.Fprintf(&b, `
func f%d() {
	%%p = palloc obj
	store %%p.val, %d @%d
	ret
}
`, i, val, 100+i)
	}
	return b.String()
}

func renderReport(t *testing.T, rep *report.Report) string {
	t.Helper()
	rep.Sort()
	return rep.String()
}

// TestCacheWarmMatchesCold pins the headline guarantee: with a shared
// cache, a warm re-analysis renders byte-identical output to the cold
// run and to an uncached run, at every worker count.
func TestCacheWarmMatchesCold(t *testing.T) {
	src := tenFuncSrc(10, "")
	want := renderReport(t, mustAnalyze(t, src, Config{}))
	for _, workers := range []int{1, 2, 8} {
		cache, err := anacache.New("")
		if err != nil {
			t.Fatal(err)
		}
		cfg := Config{Workers: workers, Cache: cache}
		cold := renderReport(t, mustAnalyze(t, src, cfg))
		warm := renderReport(t, mustAnalyze(t, src, cfg))
		if cold != want {
			t.Errorf("workers %d: cached cold run diverged from uncached\n--- want:\n%s--- got:\n%s", workers, want, cold)
		}
		if warm != cold {
			t.Errorf("workers %d: warm run diverged from cold\n--- cold:\n%s--- warm:\n%s", workers, cold, warm)
		}
		st := cache.Stats()
		if st.VerdictHits == 0 || st.VerdictMisses == 0 {
			t.Errorf("workers %d: expected both misses (cold) and hits (warm), stats %+v", workers, st)
		}
	}
}

func mustAnalyze(t *testing.T, src string, cfg Config) *report.Report {
	t.Helper()
	rep, err := analyzeSource(src, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestCacheIncrementalRecompute is the issue's incremental scenario:
// mutate one function of a 10-function module and re-analyze against
// the same cache — exactly that function's artifacts are recomputed;
// the other nine are served from the cache.
func TestCacheIncrementalRecompute(t *testing.T) {
	cache, err := anacache.New("")
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Workers: 4, Cache: cache}

	base := mustAnalyze(t, tenFuncSrc(10, ""), cfg)
	if len(base.Warnings) != 10 {
		t.Fatalf("expected 10 warnings from the base module, got %d", len(base.Warnings))
	}
	cold := cache.Stats()
	if cold.Stores != 10 || cold.VerdictMisses != 10 {
		t.Fatalf("cold run should miss and store all 10 verdicts, stats %+v", cold)
	}

	mutatedSrc := tenFuncSrc(10, "f5")
	got := mustAnalyze(t, mutatedSrc, cfg)
	warm := cache.Stats()

	if d := warm.VerdictMisses - cold.VerdictMisses; d != 1 {
		t.Errorf("expected exactly 1 verdict miss for the mutated function, got %d", d)
	}
	if d := warm.VerdictHits - cold.VerdictHits; d != 9 {
		t.Errorf("expected 9 verdict hits for the unchanged functions, got %d", d)
	}
	if d := warm.TraceMisses - cold.TraceMisses; d != 1 {
		t.Errorf("expected exactly 1 trace recompute, got %d", d)
	}
	if d := warm.Stores - cold.Stores; d != 1 {
		t.Errorf("expected exactly 1 new verdict store, got %d", d)
	}

	// The incremental report must equal a from-scratch analysis of the
	// mutated module byte for byte.
	want := renderReport(t, mustAnalyze(t, mutatedSrc, Config{}))
	if renderReport(t, got) != want {
		t.Errorf("incremental report diverged from scratch analysis\n--- want:\n%s--- got:\n%s",
			want, renderReport(t, got))
	}
}

// TestCacheComponentInvalidation: with call edges, mutating a callee
// recomputes its whole weakly-connected component but nothing else.
func TestCacheComponentInvalidation(t *testing.T) {
	src := func(line int) string {
		return fmt.Sprintf(`
module comp

type obj struct {
	val: int
}

func helper(p: *obj) {
	store %%p.val, 1 @%d
	ret
}

func rootA() {
	%%p = palloc obj
	call helper(%%p)
	ret
}

func rootB() {
	%%q = palloc obj
	store %%q.val, 2 @30
	ret
}
`, line)
	}
	cache, err := anacache.New("")
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Cache: cache}
	mustAnalyze(t, src(10), cfg)
	cold := cache.Stats()

	// Mutating helper invalidates {helper, rootA}; rootB stays cached.
	got := mustAnalyze(t, src(11), cfg)
	warm := cache.Stats()
	// Targets are the two roots: rootA misses (component changed), rootB
	// hits.  helper is not a target, so verdict traffic is 1 miss/1 hit.
	if d := warm.VerdictMisses - cold.VerdictMisses; d != 1 {
		t.Errorf("expected 1 verdict miss (rootA), got %d", d)
	}
	if d := warm.VerdictHits - cold.VerdictHits; d != 1 {
		t.Errorf("expected 1 verdict hit (rootB), got %d", d)
	}
	want := renderReport(t, mustAnalyze(t, src(11), Config{}))
	if renderReport(t, got) != want {
		t.Errorf("post-mutation report diverged from scratch analysis")
	}
}

// TestCacheDiskTierAcrossInstances: a cache re-opened on the same
// directory (a fresh process) serves verdicts from disk and renders the
// identical report.
func TestCacheDiskTierAcrossInstances(t *testing.T) {
	dir := t.TempDir()
	src := tenFuncSrc(10, "")

	prime, err := anacache.New(dir)
	if err != nil {
		t.Fatal(err)
	}
	cold := renderReport(t, mustAnalyze(t, src, Config{Cache: prime}))

	reopened, err := anacache.New(dir)
	if err != nil {
		t.Fatal(err)
	}
	warm := renderReport(t, mustAnalyze(t, src, Config{Cache: reopened}))
	if warm != cold {
		t.Errorf("disk-tier warm run diverged\n--- cold:\n%s--- warm:\n%s", cold, warm)
	}
	st := reopened.Stats()
	if st.DiskHits != 10 {
		t.Errorf("expected all 10 verdicts from disk, stats %+v", st)
	}
	if st.TraceHits != 0 {
		t.Errorf("trace tier is memory-only; a fresh instance cannot hit it, stats %+v", st)
	}
}

// TestDisablePassExactness: disabling one pass removes exactly its
// diagnostics — the remaining report equals the full report minus the
// warnings carrying that pass's code, byte for byte.
func TestDisablePassExactness(t *testing.T) {
	// This module trips DMC-S01 (unflushed write) and DMC-S08 (flush of
	// an unmodified object) in separate functions.
	src := `
module mix

type obj struct {
	a: int
	b: int
}

func leak() {
	%p = palloc obj
	store %p.a, 1 @10
	ret
}

func wasteful() {
	%q = palloc obj
	store %q.a, 1 @20
	flush %q.a    @21
	flush %q.b    @22
	fence         @23
	ret
}
`
	full := mustAnalyze(t, src, Config{})
	codes := make(map[string]int)
	for _, w := range full.Warnings {
		codes[w.EffectiveCode()]++
	}
	if codes[report.CodeUnflushedWrite] == 0 || codes[report.CodeFlushUnmodified] == 0 {
		t.Fatalf("test premise broken: need S01 and S08 warnings, got %v", codes)
	}

	for _, disable := range []string{report.CodeUnflushedWrite, report.CodeFlushUnmodified} {
		got := mustAnalyze(t, src, Config{DisablePasses: []string{disable}})
		want := report.New()
		for _, w := range full.Warnings {
			if w.EffectiveCode() != disable {
				want.Add(w)
			}
		}
		if renderReport(t, got) != renderReport(t, want) {
			t.Errorf("disabling %s did not remove exactly its diagnostics\n--- want:\n%s--- got:\n%s",
				disable, renderReport(t, want), renderReport(t, got))
		}
	}

	// Unknown pass IDs are configuration errors, not silent no-ops.
	if _, err := analyzeSource(src, Config{DisablePasses: []string{"DMC-S99"}}); err == nil {
		t.Error("unknown pass ID in DisablePasses was accepted")
	}
	if _, err := analyzeSource(src, Config{Passes: []string{"nope"}}); err == nil {
		t.Error("unknown pass ID in Passes was accepted")
	}
}

// TestDisableDynamicPass: the dynamic WAW detector (DMC-D01) can be
// disabled independently of RAW, and disabling it removes the runtime
// strand-race diagnostic.
func TestDisableDynamicPass(t *testing.T) {
	src := `
module m

type acct struct {
	bal: int
}

func racy(a: *acct) {
	file "racy.c"
	strandbegin 1        @10
	store %a.bal, 100    @11
	flush %a.bal         @12
	strandend 1          @13
	strandbegin 2        @14
	store %a.bal, 200    @15
	flush %a.bal         @16
	strandend 2          @17
	fence                @18
	ret
}

func main() {
	%a = palloc acct
	call racy(%a)
	ret
}
`
	m := ir.MustParse(src)
	rep, _, err := RunDynamic(context.Background(), m, Config{}, "main", nil)
	if err != nil {
		t.Fatal(err)
	}
	waw := 0
	for _, w := range rep.Warnings {
		if w.EffectiveCode() == report.CodeDynWAW {
			waw++
		}
	}
	if waw == 0 {
		t.Fatalf("test premise broken: expected a WAW race, report:\n%s", rep)
	}

	rep, _, err = RunDynamic(context.Background(), m,
		Config{DisablePasses: []string{report.CodeDynWAW}}, "main", nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range rep.Warnings {
		if w.EffectiveCode() == report.CodeDynWAW {
			t.Errorf("disabled DMC-D01 still emitted: %s", w)
		}
	}
}

// TestCacheRespectsPassSelection: verdicts cached under one pass set
// must not leak into a run with a different pass set — the pass-set
// version is part of the verdict key.
func TestCacheRespectsPassSelection(t *testing.T) {
	cache, err := anacache.New("")
	if err != nil {
		t.Fatal(err)
	}
	src := tenFuncSrc(2, "")
	full := renderReport(t, mustAnalyze(t, src, Config{Cache: cache}))
	disabled := renderReport(t, mustAnalyze(t, src, Config{Cache: cache, DisablePasses: []string{report.CodeUnflushedWrite}}))
	if full == disabled {
		t.Fatal("disabling a pass changed nothing; the cache leaked across pass sets")
	}
	if strings.Contains(disabled, report.CodeUnflushedWrite) {
		t.Errorf("disabled pass's code still present:\n%s", disabled)
	}
	// And the traces were reused: the second run must not re-collect.
	st := cache.Stats()
	if st.TraceHits == 0 {
		t.Errorf("expected trace-tier reuse across pass sets, stats %+v", st)
	}
}
