// Package corpus holds PIR reimplementations of the buggy NVM programs
// the paper studies and evaluates on: PMDK (strict persistency), PMFS
// (epoch), NVM-Direct (strict) and Mnemosyne (epoch), with the bugs of
// Tables 3 and 8 planted at their recorded file/line locations, plus the
// conservative-analysis decoy patterns responsible for DeepMC's seven
// false positives (§5.4).
//
// The ground truth attached to each program drives the regeneration of
// Tables 1, 2, 3 and 8: a checker run over the corpus must produce
// exactly the paper's 50 warnings, of which 43 match valid ground-truth
// bugs (19 studied + 24 new) and 7 are false positives.
//
// Where the paper's tables disagree with each other (its Table 1 row
// sums, Table 2 class splits and Table 8 listings cannot all hold
// simultaneously), the ledger follows Table 1 exactly and keeps the
// published file/line locations wherever they fit; EXPERIMENTS.md
// records each such reconciliation.
package corpus

import (
	"context"
	"fmt"
	"sort"

	"deepmc/internal/checker"
	"deepmc/internal/ir"
	"deepmc/internal/report"
)

// GroundTruth is one expected checker warning with its manual validation
// verdict.
type GroundTruth struct {
	File string
	Line int
	Rule report.Rule
	// Valid is the manual-validation verdict: false marks the planted
	// false-positive decoys.
	Valid bool
	// Studied marks the 19 bugs of the characterization study (Table 3);
	// the rest are the 24 new bugs of Table 8.
	Studied bool
	// Description is the bug description as the paper's tables word it.
	Description string
	// Years is the bug age in years (Table 8's last column).
	Years float64
	// Lib marks bugs in the framework/library itself; false = example
	// program (the LIB/EP column).
	Lib bool
}

// Class returns the bug family of the expected warning.
func (g GroundTruth) Class() report.Class { return report.ClassOf(g.Rule) }

// Key matches report.Warning.Key for cross-referencing.
func (g GroundTruth) Key() string {
	return fmt.Sprintf("%s|%s|%d", g.Rule, g.File, g.Line)
}

// Program is one framework/library corpus with its ground truth.
type Program struct {
	Name  string // "PMDK", "PMFS", "NVM-Direct", "Mnemosyne"
	Model checker.Model
	// Source is the PIR text; Module() parses it on demand.
	Source string
	Truth  []GroundTruth
}

// Module parses and verifies the program's PIR source.  A malformed
// program is a diagnostic, not a panic, so one bad corpus entry
// degrades gracefully inside a batch run.
func (p *Program) Module() (*ir.Module, error) {
	m, err := ir.Parse(p.Source)
	if err != nil {
		return nil, fmt.Errorf("corpus %s: %w", p.Name, err)
	}
	if err := ir.Verify(m); err != nil {
		return nil, fmt.Errorf("corpus %s: %w", p.Name, err)
	}
	return m, nil
}

// All returns the four corpus programs in the paper's order.
func All() []*Program {
	return []*Program{PMDK(), NVMDirect(), PMFS(), Mnemosyne()}
}

// Evaluation compares a checker run against ground truth.
type Evaluation struct {
	Program *Program
	Report  *report.Report
	// Matched pairs each ground-truth entry with whether a warning hit it.
	Matched map[string]bool
	// Unexpected lists warnings with no ground-truth entry.
	Unexpected []report.Warning
}

// Evaluate runs the static checker over the program with the given
// worker count and scores the result.  The deterministic-merge
// guarantee makes the score identical for any worker count.  When ctx
// expires mid-analysis the score is computed over a partial report
// whose skip annotations name the unscanned functions, instead of an
// error.
func Evaluate(ctx context.Context, p *Program, workers int) (*Evaluation, error) {
	m, err := p.Module()
	if err != nil {
		return nil, err
	}
	rep := checker.New(m, checker.DefaultOptions(p.Model)).CheckModuleParallelCtx(ctx, workers)
	return Score(p, rep), nil
}

// Score matches an existing report against the program's ground truth.
func Score(p *Program, rep *report.Report) *Evaluation {
	ev := &Evaluation{Program: p, Report: rep, Matched: make(map[string]bool)}
	truthKeys := make(map[string]bool, len(p.Truth))
	for _, g := range p.Truth {
		truthKeys[g.Key()] = true
		ev.Matched[g.Key()] = false
	}
	for _, w := range rep.Warnings {
		if truthKeys[w.Key()] {
			ev.Matched[w.Key()] = true
		} else {
			ev.Unexpected = append(ev.Unexpected, w)
		}
	}
	return ev
}

// Missing returns ground-truth entries no warning matched.
func (ev *Evaluation) Missing() []GroundTruth {
	var out []GroundTruth
	for _, g := range ev.Program.Truth {
		if !ev.Matched[g.Key()] {
			out = append(out, g)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].File != out[j].File {
			return out[i].File < out[j].File
		}
		return out[i].Line < out[j].Line
	})
	return out
}

// Exact reports whether the run reproduced the ground truth perfectly:
// every expected warning present, nothing unexpected.
func (ev *Evaluation) Exact() bool {
	return len(ev.Missing()) == 0 && len(ev.Unexpected) == 0
}

// Counts aggregates warnings/valid per class, the Table 1 cells.
type Counts struct {
	Warnings  int
	Valid     int
	Violation int // valid model-violation bugs
	Perf      int // valid performance bugs
	Studied   int
	New       int
}

// TruthCounts tallies the program's ground truth.
func (p *Program) TruthCounts() Counts {
	var c Counts
	for _, g := range p.Truth {
		c.Warnings++
		if !g.Valid {
			continue
		}
		c.Valid++
		if g.Class() == report.Violation {
			c.Violation++
		} else {
			c.Perf++
		}
		if g.Studied {
			c.Studied++
		} else {
			c.New++
		}
	}
	return c
}
