package tables

import (
	"context"
	"fmt"
	"strings"
	"time"

	"deepmc/internal/core"
	"deepmc/internal/corpus"
	"deepmc/internal/fleet"
	"deepmc/internal/fuzzsched"
)

// Entry is one experiment or gate deepmc-bench runs by name.  Paper
// entries regenerate the evaluation and are what "all" runs; the rest
// are CI gates, named like their Makefile targets.
type Entry struct {
	Name  string
	Paper bool
	Doc   string
	Run   func() Result
}

// Result is an entry's outcome.  The runner prints Text, writes Bench
// (when non-nil) to BENCH_<name>.json, and fails the run when OK is
// false — a broken identity, a failed gate, or an entry that could not
// run at all.
type Result struct {
	Text  string
	Bench any
	OK    bool
}

// Entries is every entry, paper entries first in the order "all" runs
// them.
var Entries = []Entry{
	{"table1", true, "Table 1: validated bugs / warnings per framework and rule", text(Table1)},
	{"table2", true, "Table 2: studied bugs per framework", text(Table2)},
	{"table3", true, "Table 3: the studied bugs and their locations", text(Table3)},
	{"table6", true, "Table 6: the benchmark applications", text(Table6)},
	{"table7", true, "Table 7: this host's configuration", text(Table7)},
	{"table8", true, "Table 8: new bugs, their consequences and age", text(Table8)},
	{"table9", true, "Table 9: compile time with and without DeepMC", text(Table9)},
	{"completeness", true, "§5.3: re-detection of the studied bugs", text(Completeness)},
	{"fp", true, "§5.4: false-positive analysis", text(FalsePositives)},
	{"perffix", true, "§5.1: improvement from fixing the detected performance bugs", text(PerfFix)},
	{"ablations", true, "DESIGN.md §6 ablations: field sensitivity and shadow scope", text(Ablations)},
	{"speedup", true, "serial vs parallel corpus analysis at -jobs workers; reports must match", speedup},
	{"cache", true, "cold vs warm cached corpus analysis; warm must match cold", cacheBench},
	{"pmodel", true, "x86 vs CXL persistency contracts on one commit workload", pmodelBench},
	{"crashsim", true, "legacy vs pruned vs parallel crash enumeration; results must match", crashsimBench},
	{"figure12", true, "Figure 12: throughput overhead of the dynamic analysis", figure12},
	{"cache-gate", false, "gate: warm == cold at workers 1/2/8 and through the disk tier", cacheGate},
	{"serve-gate", false, "gate: serve == batch across restarts, breakers trip and recover, overload sheds", serveGate},
	{"fuzz-gate", false, "gate: witnesses replay, planted bugs are re-found, fixed targets stay clean", fuzzGate},
	{"fleet-gate", false, "gate: fleet == batch in-process and over HTTP, through kills and network faults", fleetGate},
	{"pmodel-gate", false, "gate: persistency-contract verdict matrix, empty-domain cxl == x86", pmodelGate},
	{"soak", false, "gate: heavy-traffic soak, crash+recover audits, sharded checker", func() Result { return soakGate(false) }},
	{"soak-short", false, "gate: the soak gate at CI-sized op budgets", func() Result { return soakGate(true) }},
}

// text adapts a deterministic render that cannot fail.
func text(render func() string) func() Result {
	return func() Result { return Result{Text: render(), OK: true} }
}

// fail is the Result of an entry that could not run.
func fail(what string, err error) Result {
	return Result{Text: fmt.Sprintf("%s: %v\n", what, err)}
}

func fuzzGate() Result {
	s, ok := fuzzsched.Gate(context.Background())
	return Result{Text: s, OK: ok}
}

// corpusJobs is every corpus program as a job: its parsed module, its
// registered name (the wire form), and base's settings under the
// program's declared model.
func corpusJobs(base core.Config) ([]fleet.Job, error) {
	var jobs []fleet.Job
	for _, p := range corpus.All() {
		m, err := p.Module()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", p.Name, err)
		}
		cfg := base
		cfg.Model = p.Model.String()
		jobs = append(jobs, fleet.Job{Name: p.Name, Module: m, Corpus: p.Name, Config: cfg})
	}
	return jobs, nil
}

// batchRender analyzes every job on the single-node pipeline and
// concatenates the "== name" headers and rendered reports — the byte
// stream the identity gates compare, and fleet.Result.Render's format.
func batchRender(jobs []fleet.Job) (string, error) {
	var b strings.Builder
	for _, j := range jobs {
		rep, err := core.AnalyzeCtx(context.Background(), j.Module, j.Config)
		if err != nil {
			return "", fmt.Errorf("%s: %w", j.Name, err)
		}
		fmt.Fprintf(&b, "== %s\n%s", j.Name, rep)
	}
	return b.String(), nil
}

// bestOf runs run rounds times and returns the fastest round's wall
// time and the last round's output.
func bestOf[T any](rounds int, run func() (T, error)) (time.Duration, T, error) {
	var best time.Duration
	var out T
	for r := 0; r < rounds; r++ {
		start := time.Now()
		v, err := run()
		if err != nil {
			return 0, out, err
		}
		if d := time.Since(start); best == 0 || d < best {
			best = d
		}
		out = v
	}
	return best, out, nil
}
