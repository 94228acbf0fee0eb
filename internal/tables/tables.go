// Package tables regenerates every table and figure of the paper's
// evaluation from this repository's implementations: the detection
// tables (1, 2, 3, 8) from the corpus + checker, the configuration
// tables (6, 7), the compile-time overhead table (9) from the synthetic
// app modules, Figure 12 from the ported applications under the runtime
// tracker, and the §5.1 performance-bug fix experiment — and runs the
// benches and CI gates built on the same corpus.  Entries names each
// one for deepmc-bench.
package tables

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"time"

	"deepmc/internal/core"
	"deepmc/internal/corpus"
	"deepmc/internal/fanout"
	"deepmc/internal/ir"
	"deepmc/internal/report"
)

// ruleRow is one Table 1 row: a bug description and the rule that
// detects it.
type ruleRow struct {
	Desc  string
	Rule  report.Rule
	Class report.Class
}

// table1Rows lists the paper's Table 1 rows in order.
func table1Rows() []ruleRow {
	return []ruleRow{
		{"Multiple writes made durable at once", report.RuleMultipleWritesAtOnce, report.Violation},
		{"Unflushed write", report.RuleUnflushedWrite, report.Violation},
		{"Missing persist barriers", report.RuleMissingBarrier, report.Violation},
		{"Missing persist barriers in nested transactions", report.RuleMissingBarrierNestedTx, report.Violation},
		{"Mismatch between program semantics and model", report.RuleSemanticMismatch, report.Violation},
		{"Multiple flushes to a persistent object", report.RuleRedundantFlush, report.Performance},
		{"Flush an unmodified object", report.RuleFlushUnmodified, report.Performance},
		{"Persist the same object multiple times in a transaction", report.RuleMultiplePersist, report.Performance},
		{"Durable transaction without persistent writes", report.RuleDurableTxNoWrite, report.Performance},
	}
}

// Workers is the checker fan-out used by every corpus run in this
// package (the -jobs flag of deepmc-bench), resolved by fanout.Workers:
// 0 means GOMAXPROCS, 1 (or less) the serial checker.  The
// deterministic-merge guarantee makes every table byte-identical under
// any setting.
var Workers = 1

// CorpusRun holds one checker run over one corpus program, cross-scored
// against ground truth.  Err is set (and Eval nil) when the program's
// PIR source failed to parse or verify.
type CorpusRun struct {
	Program *corpus.Program
	Eval    *corpus.Evaluation
	Err     error
}

// RunCorpus checks all four programs.  A malformed program yields a run
// with Err set rather than aborting the batch.
func RunCorpus() []CorpusRun {
	var out []CorpusRun
	for _, p := range corpus.All() {
		ev, err := corpus.Evaluate(context.Background(), p, fanout.Workers(Workers))
		out = append(out, CorpusRun{Program: p, Eval: ev, Err: err})
	}
	return out
}

// corpusErr renders the first corpus failure in runs, or "" if none.
// Table renderers return it as their whole output: a diagnostic beats a
// panic, and beats a silently incomplete table.
func corpusErr(runs []CorpusRun) string {
	for _, r := range runs {
		if r.Err != nil {
			return fmt.Sprintf("corpus error: %v\n", r.Err)
		}
	}
	return ""
}

// speedup times the full-corpus analysis serially and with the
// parallel scheduler at Workers, reporting wall time and speedup.  Both
// sides parse up front, so the timed rounds cover the static pipeline
// (DSA + trace collection + rule checking) and rendering; the two
// renders must be byte-identical.
func speedup() Result {
	workers := fanout.Workers(Workers)
	serialJobs, err := corpusJobs(core.Config{Workers: 1})
	if err != nil {
		return fail("speedup", err)
	}
	parJobs, err := corpusJobs(core.Config{Workers: workers})
	if err != nil {
		return fail("speedup", err)
	}
	const rounds = 50
	serial, serialOut, err := bestOf(rounds, func() (string, error) { return batchRender(serialJobs) })
	if err != nil {
		return fail("speedup", err)
	}
	par, parOut, err := bestOf(rounds, func() (string, error) { return batchRender(parJobs) })
	if err != nil {
		return fail("speedup", err)
	}
	identical := serialOut == parOut
	var b strings.Builder
	b.WriteString("Parallel analysis: full corpus, serial vs. worker-pool checker\n\n")
	fmt.Fprintf(&b, "%-24s %14s\n", "Configuration", "Wall time")
	fmt.Fprintf(&b, "%-24s %14s\n", "serial (workers=1)", serial.Round(time.Microsecond))
	fmt.Fprintf(&b, "%-24s %14s\n", fmt.Sprintf("parallel (workers=%d)", workers), par.Round(time.Microsecond))
	fmt.Fprintf(&b, "\nSpeedup %.2fx on %d logical CPUs (best of %d rounds); reports byte-identical: %v\n",
		float64(serial)/float64(par), runtime.NumCPU(), rounds, identical)
	return Result{Text: b.String(), OK: identical}
}

// cellFor counts validated/warnings for one rule in one program, using
// the ground truth's validity verdicts against the actual checker
// output.
func cellFor(run CorpusRun, rule report.Rule) (valid, warnings int) {
	truthValid := make(map[string]bool)
	for _, g := range run.Program.Truth {
		truthValid[g.Key()] = g.Valid
	}
	for _, w := range run.Eval.Report.Warnings {
		if w.Rule != rule {
			continue
		}
		warnings++
		if truthValid[w.Key()] {
			valid++
		}
	}
	return
}

// Table1 renders the headline detection table.
func Table1() string {
	runs := RunCorpus()
	if msg := corpusErr(runs); msg != "" {
		return msg
	}
	var b strings.Builder
	b.WriteString("Table 1: validated-bugs/warnings reported by DeepMC\n\n")
	fmt.Fprintf(&b, "%-56s", "Bug Description")
	for _, r := range runs {
		fmt.Fprintf(&b, " %12s", r.Program.Name)
	}
	b.WriteString("\n")
	totValid := make([]int, len(runs))
	totWarn := make([]int, len(runs))
	for _, row := range table1Rows() {
		fmt.Fprintf(&b, "%-56s", row.Desc)
		for i, r := range runs {
			v, w := cellFor(r, row.Rule)
			if w == 0 {
				fmt.Fprintf(&b, " %12s", "-")
			} else {
				fmt.Fprintf(&b, " %12s", fmt.Sprintf("%d/%d", v, w))
			}
			totValid[i] += v
			totWarn[i] += w
		}
		b.WriteString("\n")
	}
	fmt.Fprintf(&b, "%-56s", "Total")
	for i := range runs {
		fmt.Fprintf(&b, " %12s", fmt.Sprintf("%d/%d", totValid[i], totWarn[i]))
	}
	b.WriteString("\n")
	allV, allW := 0, 0
	for i := range runs {
		allV += totValid[i]
		allW += totWarn[i]
	}
	fmt.Fprintf(&b, "\n%d warnings in total, %d validated persistency bugs (paper: 50/43)\n", allW, allV)
	return b.String()
}

// Table2 renders the studied-bug counts.
func Table2() string {
	var b strings.Builder
	b.WriteString("Table 2: number of persistency bugs studied\n\n")
	fmt.Fprintf(&b, "%-18s %14s %14s %8s\n", "Framework", "Model Viol.", "Performance", "Total")
	totV, totP := 0, 0
	for _, p := range corpus.All() {
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
		if v+perf == 0 {
			continue
		}
		fmt.Fprintf(&b, "%-18s %14d %14d %8d\n", p.Name, v, perf, v+perf)
		totV += v
		totP += perf
	}
	fmt.Fprintf(&b, "%-18s %14d %14d %8d\n", "Total", totV, totP, totV+totP)
	return b.String()
}

// Table3 lists the studied bugs with their locations.
func Table3() string {
	var b strings.Builder
	b.WriteString("Table 3: persistency bugs studied (V = model violation, P = performance)\n\n")
	fmt.Fprintf(&b, "%-12s %-22s %6s %-4s %-4s %s\n", "Library", "File", "Line", "Cls", "Loc", "Description")
	for _, p := range corpus.All() {
		for _, g := range sortedTruth(p) {
			if !g.Studied || !g.Valid {
				continue
			}
			cls := "V"
			if g.Class() == report.Performance {
				cls = "P"
			}
			loc := "EP"
			if g.Lib {
				loc = "LIB"
			}
			fmt.Fprintf(&b, "%-12s %-22s %6d %-4s %-4s %s\n", p.Name, g.File, g.Line, cls, loc, g.Description)
		}
	}
	return b.String()
}

// Table8 lists the new bugs with consequences and age.
func Table8() string {
	var b strings.Builder
	b.WriteString("Table 8: new persistency bugs detected by DeepMC\n\n")
	fmt.Fprintf(&b, "%-12s %-22s %6s %-4s %-16s %6s %s\n", "Library", "File", "Line", "Loc", "Consequence", "Years", "Description")
	count := 0
	var years float64
	viol, perf := 0, 0
	for _, p := range corpus.All() {
		for _, g := range sortedTruth(p) {
			if g.Studied || !g.Valid {
				continue
			}
			loc := "EP"
			if g.Lib {
				loc = "LIB"
			}
			cons := "Perf. Overhead"
			if g.Class() == report.Violation {
				cons = "Model Violation"
				viol++
			} else {
				perf++
			}
			fmt.Fprintf(&b, "%-12s %-22s %6d %-4s %-16s %6.1f %s\n", p.Name, g.File, g.Line, loc, cons, g.Years, g.Description)
			count++
			years += g.Years
		}
	}
	fmt.Fprintf(&b, "\n%d new bugs (%d model violations, %d performance), mean age %.1f years (paper: 24 new, 5.4 years)\n",
		count, viol, perf, years/float64(count))
	return b.String()
}

func sortedTruth(p *corpus.Program) []corpus.GroundTruth {
	ts := append([]corpus.GroundTruth(nil), p.Truth...)
	sort.Slice(ts, func(i, j int) bool {
		if ts[i].File != ts[j].File {
			return ts[i].File < ts[j].File
		}
		return ts[i].Line < ts[j].Line
	})
	return ts
}

// Table6 describes the benchmarks (static configuration).
func Table6() string {
	return `Table 6: benchmarks
Application  Library            Benchmark
Memcached    Mnemosyne (port)   memslap mixes (4 clients)
Redis        PMDK (port)        redis-benchmark default suite (SET/GET/INCR/LPUSH/LPOP/SADD)
NStore       low-level NVM ops  YCSB A-F (4 clients)
`
}

// Table7 reports the host configuration of this run.
func Table7() string {
	return fmt.Sprintf(`Table 7: system configuration (this reproduction)
Processor  %s/%s, %d logical CPUs
Runtime    %s
NVM        simulated (internal/nvm): 64B cachelines, clwb/sfence semantics
`, runtime.GOOS, runtime.GOARCH, runtime.NumCPU(), runtime.Version())
}

// Table9Row is one compile-time measurement.
type Table9Row struct {
	App      string
	Funcs    int
	Instrs   int
	Baseline time.Duration // parse + verify only
	DeepMC   time.Duration // Baseline + the full static pipeline on that parse
}

// Overhead returns the added compile time.
func (r Table9Row) Overhead() time.Duration { return r.DeepMC - r.Baseline }

// Table9Measure runs the compile-time experiment on app-scale modules.
// Each module is parsed once: the analysis runs on the baseline's own
// parse, so the Added column is the analysis time alone and cannot go
// negative from two parses timing differently.
func Table9Measure() []Table9Row {
	var rows []Table9Row
	for _, spec := range core.AppSpecs() {
		m := core.GenerateApp(spec)
		text := ir.Print(m)
		start := time.Now()
		parsed := ir.MustParse(text)
		if err := ir.Verify(parsed); err != nil {
			panic(err)
		}
		base := time.Since(start)
		row := Table9Row{App: spec.Name, Funcs: len(parsed.Funcs), Instrs: parsed.NumInstrs(), Baseline: base}
		start = time.Now()
		if _, err := core.Analyze(parsed, core.Config{Model: "strict"}); err != nil {
			panic(err)
		}
		row.DeepMC = base + time.Since(start)
		rows = append(rows, row)
	}
	return rows
}

// Table9 renders the compile-time experiment.
func Table9() string {
	var b strings.Builder
	b.WriteString("Table 9: compilation (parse+verify) vs. compilation with DeepMC\n\n")
	fmt.Fprintf(&b, "%-12s %8s %9s %14s %14s %12s\n", "Benchmark", "Funcs", "Instrs", "Baseline", "With DeepMC", "Added")
	for _, r := range Table9Measure() {
		fmt.Fprintf(&b, "%-12s %8d %9d %14s %14s %12s\n",
			r.App, r.Funcs, r.Instrs, r.Baseline.Round(time.Microsecond),
			r.DeepMC.Round(time.Microsecond), r.Overhead().Round(time.Microsecond))
	}
	b.WriteString("\nPaper shape: DeepMC adds seconds of compile time (8.5->11.9, 54.9->62.4, 31.9->35.6 s); acceptable overhead.\n")
	return b.String()
}

// FalsePositives renders the §5.4 analysis.
func FalsePositives() string {
	runs := RunCorpus()
	if msg := corpusErr(runs); msg != "" {
		return msg
	}
	var b strings.Builder
	b.WriteString("False positives (§5.4)\n\n")
	fps, total := 0, 0
	for _, run := range runs {
		truthValid := make(map[string]bool)
		for _, g := range run.Program.Truth {
			truthValid[g.Key()] = g.Valid
		}
		for _, w := range run.Eval.Report.Warnings {
			total++
			if !truthValid[w.Key()] {
				fps++
				fmt.Fprintf(&b, "  %-12s %s\n", run.Program.Name, w.String())
			}
		}
	}
	fmt.Fprintf(&b, "\n%d of %d warnings are false positives (%.0f%%; paper: 14%%)\n",
		fps, total, 100*float64(fps)/float64(total))
	return b.String()
}

// Completeness renders the §5.3 check: all studied bugs re-detected.
func Completeness() string {
	runs := RunCorpus()
	if msg := corpusErr(runs); msg != "" {
		return msg
	}
	var b strings.Builder
	b.WriteString("Completeness (§5.3): re-detection of the 19 studied bugs\n\n")
	found, total := 0, 0
	for _, run := range runs {
		for _, g := range run.Program.Truth {
			if !g.Studied || !g.Valid {
				continue
			}
			total++
			mark := "MISS"
			if run.Eval.Matched[g.Key()] {
				mark = "ok"
				found++
			}
			fmt.Fprintf(&b, "  [%-4s] %-12s %s:%d %s\n", mark, run.Program.Name, g.File, g.Line, g.Rule)
		}
	}
	fmt.Fprintf(&b, "\n%d/%d studied bugs re-detected (paper: 19/19)\n", found, total)
	return b.String()
}
