package tables

import (
	"fmt"
	"strings"

	"deepmc/internal/corpus"
	"deepmc/internal/ir"
	"deepmc/internal/nvm"
)

// PerfFixRow is one §5.1 fix experiment: a performance bug DeepMC found,
// measured buggy vs. fixed on the NVM simulator's latency model.
type PerfFixRow struct {
	Framework string
	Bug       string
	Site      string // the bug's corpus file and lines
	BuggyNs   int64
	FixedNs   int64
}

// ImprovementPct returns the simulated-time improvement of the fix.
func (r PerfFixRow) ImprovementPct() float64 {
	if r.BuggyNs <= 0 {
		return 0
	}
	return 100 * float64(r.BuggyNs-r.FixedNs) / float64(r.BuggyNs)
}

// PerfFixMeasure runs every §5.1 pair (corpus.PerfCases): the corpus
// program's own functions, as written and as repaired, each on a fresh
// pool.  The simulator's accounting is deterministic, so one run each
// suffices.
func PerfFixMeasure() []PerfFixRow {
	cases, err := corpus.PerfCases()
	if err != nil {
		panic(err)
	}
	rows := make([]PerfFixRow, len(cases))
	for i, c := range cases {
		rows[i] = PerfFixRow{
			Framework: c.Program, Bug: c.Bug, Site: c.Site(),
			BuggyNs: simulatedNs(c.Buggy, c.Entry), FixedNs: simulatedNs(c.Fixed, c.Entry),
		}
	}
	return rows
}

// simulatedNs runs entry of m on a fresh 1 MiB pool, which holds every
// §5.1 harness, and returns the pool's simulated time.
func simulatedNs(m *ir.Module, entry string) int64 {
	p := nvm.NewPool(nvm.Config{Size: 1 << 20})
	if err := nvm.RunPIR(p, m, entry); err != nil {
		panic(err)
	}
	return p.Stats().SimulatedNs
}

// PerfFix renders the §5.1 experiment.
func PerfFix() string {
	var b strings.Builder
	b.WriteString("§5.1: application improvement from fixing the detected performance bugs\n\n")
	fmt.Fprintf(&b, "%-12s %-56s %12s %12s %12s\n", "Framework", "Bug", "Buggy (ns)", "Fixed (ns)", "Improvement")
	max := 0.0
	for _, r := range PerfFixMeasure() {
		fmt.Fprintf(&b, "%-12s %-56s %12d %12d %11.1f%%\n",
			r.Framework, r.Bug+" ("+r.Site+")", r.BuggyNs, r.FixedNs, r.ImprovementPct())
		if r.ImprovementPct() > max {
			max = r.ImprovementPct()
		}
	}
	fmt.Fprintf(&b, "\nBest improvement: %.0f%% (paper: up to 43%%)\n", max)
	return b.String()
}
