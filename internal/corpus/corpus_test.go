package corpus

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"deepmc/internal/ir"
	"deepmc/internal/report"
)

// TestCorpusParsesAndVerifies ensures all four programs are well-formed.
func TestCorpusParsesAndVerifies(t *testing.T) {
	for _, p := range All() {
		m, err := p.Module()
		if err != nil {
			t.Errorf("%s: %v", p.Name, err)
			continue
		}
		if err := ir.Verify(m); err != nil {
			t.Errorf("%s: %v", p.Name, err)
		}
		if m.NumInstrs() == 0 {
			t.Errorf("%s: empty module", p.Name)
		}
	}
}

// TestExactReproduction is the core fidelity check: the checker must
// produce exactly the ground-truth warning set for each framework —
// nothing missing (completeness, §5.3), nothing extra.
func TestExactReproduction(t *testing.T) {
	for _, p := range All() {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			ev := mustEval(t, p)
			for _, g := range ev.Missing() {
				t.Errorf("missing expected warning: %s %s:%d (%s)", g.Rule, g.File, g.Line, g.Description)
			}
			for _, w := range ev.Unexpected {
				t.Errorf("unexpected warning: %s", w.String())
			}
			if t.Failed() {
				t.Logf("full report:\n%s", ev.Report)
			}
		})
	}
}

// TestTable1Counts checks the per-framework warning/valid totals of the
// paper's Table 1.
func TestTable1Counts(t *testing.T) {
	want := map[string][2]int{ // name -> {valid, warnings}
		"PMDK":       {23, 26},
		"NVM-Direct": {7, 9},
		"PMFS":       {9, 11},
		"Mnemosyne":  {4, 4},
	}
	totalValid, totalWarn := 0, 0
	for _, p := range All() {
		c := p.TruthCounts()
		w := want[p.Name]
		if c.Valid != w[0] || c.Warnings != w[1] {
			t.Errorf("%s: valid/warnings = %d/%d, want %d/%d", p.Name, c.Valid, c.Warnings, w[0], w[1])
		}
		totalValid += c.Valid
		totalWarn += c.Warnings
	}
	if totalValid != 43 || totalWarn != 50 {
		t.Errorf("totals = %d/%d, want 43/50", totalValid, totalWarn)
	}
}

// TestTable1Cells checks every row x column cell of Table 1.
func TestTable1Cells(t *testing.T) {
	type cell struct{ valid, warnings int }
	want := map[string]map[report.Rule]cell{
		"PMDK": {
			report.RuleUnflushedWrite:   {1, 2},
			report.RuleMissingBarrier:   {2, 2},
			report.RuleSemanticMismatch: {6, 7},
			report.RuleRedundantFlush:   {3, 4},
			report.RuleFlushUnmodified:  {3, 3},
			report.RuleMultiplePersist:  {3, 3},
			report.RuleDurableTxNoWrite: {5, 5},
		},
		"NVM-Direct": {
			report.RuleUnflushedWrite:   {1, 1},
			report.RuleMissingBarrier:   {2, 2},
			report.RuleRedundantFlush:   {1, 1},
			report.RuleFlushUnmodified:  {2, 3},
			report.RuleDurableTxNoWrite: {1, 2},
		},
		"PMFS": {
			report.RuleMultipleWritesAtOnce:   {1, 2},
			report.RuleMissingBarrierNestedTx: {1, 1},
			report.RuleRedundantFlush:         {3, 3},
			report.RuleFlushUnmodified:        {4, 5},
		},
		"Mnemosyne": {
			report.RuleUnflushedWrite:  {1, 1},
			report.RuleRedundantFlush:  {1, 1},
			report.RuleMultiplePersist: {2, 2},
		},
	}
	for _, p := range All() {
		got := map[report.Rule]cell{}
		for _, g := range p.Truth {
			c := got[g.Rule]
			c.warnings++
			if g.Valid {
				c.valid++
			}
			got[g.Rule] = c
		}
		for rule, w := range want[p.Name] {
			if got[rule] != (cell{w.valid, w.warnings}) {
				t.Errorf("%s %s: %d/%d, want %d/%d", p.Name, rule,
					got[rule].valid, got[rule].warnings, w.valid, w.warnings)
			}
		}
		if len(got) != len(want[p.Name]) {
			t.Errorf("%s: rules present = %d, want %d", p.Name, len(got), len(want[p.Name]))
		}
	}
}

// TestTable2StudiedCounts checks the studied-bug totals of Table 2.
func TestTable2StudiedCounts(t *testing.T) {
	want := map[string][2]int{ // {violations, perf} among studied bugs
		"PMDK":       {5, 6},
		"PMFS":       {2, 3},
		"NVM-Direct": {2, 1},
		"Mnemosyne":  {0, 0},
	}
	total := 0
	for _, p := range All() {
		v, perf := 0, 0
		for _, g := range p.Truth {
			if !g.Studied || !g.Valid {
				continue
			}
			if g.Class() == report.Violation {
				v++
			} else {
				perf++
			}
		}
		w := want[p.Name]
		if v != w[0] || perf != w[1] {
			t.Errorf("%s studied: V=%d P=%d, want V=%d P=%d", p.Name, v, perf, w[0], w[1])
		}
		total += v + perf
	}
	if total != 19 {
		t.Errorf("studied total = %d, want 19", total)
	}
}

// TestTable8NewBugs checks the new-bug totals (24 new, average age 5.4y).
func TestTable8NewBugs(t *testing.T) {
	newBugs := 0
	var years float64
	for _, p := range All() {
		for _, g := range p.Truth {
			if g.Valid && !g.Studied {
				newBugs++
				years += g.Years
			}
		}
	}
	if newBugs != 24 {
		t.Errorf("new bugs = %d, want 24", newBugs)
	}
	avg := years / float64(newBugs)
	if avg < 5.0 || avg > 5.8 {
		t.Errorf("average bug age = %.1f years, paper reports 5.4", avg)
	}
}

// TestFalsePositiveRate checks the 14% false-positive claim of §5.4.
func TestFalsePositiveRate(t *testing.T) {
	fps, warnings := 0, 0
	for _, p := range All() {
		for _, g := range p.Truth {
			warnings++
			if !g.Valid {
				fps++
			}
		}
	}
	if fps != 7 || warnings != 50 {
		t.Fatalf("fps/warnings = %d/%d, want 7/50", fps, warnings)
	}
	rate := float64(fps) / float64(warnings)
	if rate < 0.13 || rate > 0.15 {
		t.Errorf("FP rate = %.2f, paper reports 14%%", rate)
	}
}

// TestCompleteness verifies §5.3: every one of the 19 studied bugs is
// re-detected by the checker.
func TestCompleteness(t *testing.T) {
	for _, p := range All() {
		ev := mustEval(t, p)
		for _, g := range p.Truth {
			if g.Studied && !ev.Matched[g.Key()] {
				t.Errorf("%s: studied bug not detected: %s %s:%d", p.Name, g.Rule, g.File, g.Line)
			}
		}
	}
}

// TestGroundTruthKeysUnique guards the ledger against accidental
// duplicate entries (the dedup key is rule|file|line).
func TestGroundTruthKeysUnique(t *testing.T) {
	for _, p := range All() {
		seen := map[string]bool{}
		for _, g := range p.Truth {
			if seen[g.Key()] {
				t.Errorf("%s: duplicate ground truth %s", p.Name, g.Key())
			}
			seen[g.Key()] = true
		}
	}
}

// debugReport is a helper for diagnosing mismatches: go test -run
// TestExactReproduction -v prints full reports on failure; this test
// exists to document the expected warning inventory size.
func TestWarningInventory(t *testing.T) {
	var b strings.Builder
	total := 0
	for _, p := range All() {
		ev := mustEval(t, p)
		fmt.Fprintf(&b, "%s: %d warnings\n", p.Name, len(ev.Report.Warnings))
		total += len(ev.Report.Warnings)
	}
	if total != 50 {
		t.Errorf("checker produced %d warnings over the corpus, want 50\n%s", total, b.String())
	}
}

// mustEval runs the checker over a program, failing the test on a
// corpus error.
func mustEval(t *testing.T, p *Program) *Evaluation {
	t.Helper()
	ev, err := Evaluate(context.Background(), p, 1)
	if err != nil {
		t.Fatal(err)
	}
	return ev
}
