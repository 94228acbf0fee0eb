package core

import (
	"testing"

	"deepmc/internal/corpus"
)

// FuzzAnalyze drives the full static pipeline (parse → verify → DSA →
// trace collection → parallel rule checking) end to end on mutated PIR
// sources, complementing the parser-only fuzz target in internal/ir.
// Invariants: parse + Analyze never panics, and it returns exactly one of
// (report, error) — never both, never neither.
func FuzzAnalyze(f *testing.F) {
	for _, p := range corpus.All() {
		f.Add(p.Source)
	}
	f.Add(`
module seed

type o struct {
	a: int
	b: int
}

func f(p: *o) {
	store %p.a, 1 @3
	flush %p.a    @4
	fence         @5
	ret
}

func main() {
	%p = palloc o
	txbegin
	txadd %p.a
	call f(%p)
	txend
	ret
}
`)
	f.Add("module empty\n")
	f.Add("not pir at all")
	models := []string{"strict", "epoch", "strand"}
	f.Fuzz(func(t *testing.T, src string) {
		// Pick the model from the input so all three rule sets get
		// exercised, deterministically per input.
		model := models[len(src)%len(models)]
		rep, err := analyzeSource(src, Config{Model: model, Workers: 2})
		if err != nil && rep != nil {
			t.Fatalf("model %s: analyzeSource returned both a report and an error: %v", model, err)
		}
		if err == nil && rep == nil {
			t.Fatalf("model %s: analyzeSource returned neither report nor error", model)
		}
	})
}
