// End-to-end integration tests: the .pir files under testdata/ flow
// through parse -> verify -> static check -> automated fix -> dynamic
// run, exactly as the CLI drives the library.
package deepmc_test

import (
	"context"
	"os"
	"path/filepath"
	"testing"

	"deepmc/internal/checker"
	"deepmc/internal/core"
	"deepmc/internal/corpus"
	"deepmc/internal/fixer"
	"deepmc/internal/ir"
	"deepmc/internal/report"
)

func loadTestdata(t *testing.T, name string) *ir.Module {
	t.Helper()
	src, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	m, err := ir.Parse(string(src))
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if err := ir.Verify(m); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return m
}

func TestBankFileEndToEnd(t *testing.T) {
	m := loadTestdata(t, "bank.pir")
	rep, err := core.Analyze(m, core.Config{Model: "strict"})
	if err != nil {
		t.Fatal(err)
	}
	var rules []report.Rule
	for _, w := range rep.Warnings {
		rules = append(rules, w.Rule)
	}
	if len(rules) != 2 {
		t.Fatalf("warnings = %v, want unflushed-write + flush-unmodified:\n%s", rules, rep)
	}
	// Automated repair clears both (they are mechanical classes).
	fixed, res := fixer.Fix(m, rep.Warnings)
	if res.FixedCount() != 2 {
		t.Fatalf("fixer repaired %d/2:\n%s", res.FixedCount(), res)
	}
	after, err := core.Analyze(fixed, core.Config{Model: "strict"})
	if err != nil {
		t.Fatal(err)
	}
	if len(after.Warnings) != 0 {
		t.Errorf("warnings after fix:\n%s", after)
	}
}

func TestCleanFileReportsNothing(t *testing.T) {
	m := loadTestdata(t, "clean.pir")
	rep, err := core.Analyze(m, core.Config{Model: "strict"})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Warnings) != 0 {
		t.Errorf("clean program flagged:\n%s", rep)
	}
	// Dynamic execution is clean too.
	dyn, _, err := core.RunDynamic(context.Background(), m, core.Config{}, "main", nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(dyn.Warnings) != 0 {
		t.Errorf("clean program flagged dynamically:\n%s", dyn)
	}
}

func TestStrandsFileDynamicDetection(t *testing.T) {
	m := loadTestdata(t, "strands.pir")
	rep, _, err := core.RunDynamic(context.Background(), m, core.Config{}, "main", nil)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, w := range rep.Warnings {
		if w.Rule == report.RuleStrandDependence && w.Dynamic {
			found = true
		}
	}
	if !found {
		t.Errorf("strand WAW not detected dynamically:\n%s", rep)
	}
}

// TestCorpusWithSuppressionDB models the paper's §5.4 workflow at module
// scale: learning the seven validated false positives into the filter
// database leaves exactly the 43 real bugs.
func TestCorpusWithSuppressionDB(t *testing.T) {
	db := checker.NewFilterDB()
	totalBefore, totalAfter := 0, 0
	for _, p := range corpus.All() {
		ev := mustEval(t, p)
		truthValid := map[string]bool{}
		for _, g := range p.Truth {
			truthValid[g.Key()] = g.Valid
		}
		for _, w := range ev.Report.Warnings {
			if !truthValid[w.Key()] {
				db.Learn(w, "manually validated as false positive")
			}
		}
		totalBefore += len(ev.Report.Warnings)
	}
	if db.Len() != 7 {
		t.Fatalf("learned %d suppressions, want 7", db.Len())
	}
	for _, p := range corpus.All() {
		rep := checker.Check(mustModule(t, p), p.Model)
		filteredRep, _ := db.Apply(rep)
		totalAfter += len(filteredRep.Warnings)
	}
	if totalBefore != 50 || totalAfter != 43 {
		t.Errorf("warnings before/after suppression = %d/%d, want 50/43", totalBefore, totalAfter)
	}
}

// TestCorpusRoundTripsThroughText ensures the corpus modules survive
// print -> parse -> check with identical results (the text format is a
// faithful interchange format).
func TestCorpusRoundTripsThroughText(t *testing.T) {
	for _, p := range corpus.All() {
		m := mustModule(t, p)
		reparsed, err := ir.Parse(ir.Print(m))
		if err != nil {
			t.Fatalf("%s: reparse: %v", p.Name, err)
		}
		rep1 := checker.Check(m, p.Model)
		rep2 := checker.Check(reparsed, p.Model)
		if rep1.String() != rep2.String() {
			t.Errorf("%s: reports differ after text round trip", p.Name)
		}
	}
}
