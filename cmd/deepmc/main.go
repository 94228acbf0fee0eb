// Command deepmc is the DeepMC checker CLI.
//
// Usage:
//
//	deepmc check  [-model strict|epoch|strand] [-pmodel x86|cxl] [-all] [-field=false] [-jobs N] [-timeout D] [-passes IDS] [-disable-pass ID]... [-cache-dir DIR] [-json] prog.pir...
//	deepmc run    [-entry main] [-arg N]... [-timeout D] [-faults CLASSES] [-pmodel x86|cxl] [-disable-pass ID]... prog.pir
//	deepmc corpus [-name PMDK|PMFS|NVM-Direct|Mnemosyne] [-jobs N] [-timeout D] [-passes IDS] [-disable-pass ID]... [-cache-dir DIR]
//	deepmc passes
//	deepmc traces [-model ...] -fn NAME prog.pir
//	deepmc fix    [-model strict] [-o fixed.pir] prog.pir
//	deepmc fmt    prog.pir
//	deepmc crashsim [-jobs N] [-stride N] [-prune] [-entry main] [-timeout D] [-faults CLASSES] [-pmodel x86|cxl] [prog.pir]
//	deepmc fuzz   [-seed N] [-budget N] [-corpus-dir DIR] [-target NAME] [-timeout D] [-pmodel x86|cxl]
//	deepmc soak   [-app memcache|redis|nstore] [-clients N] [-partitions N] [-keys N] [-ops N] [-phases N] [-mix NAME] [-faults CLASSES] [-fault-rate R] [-seed N] [-tracked] [-buggy] [-pmodel x86|cxl]
//	deepmc fleet  [-shards N] [-model ...] [-all] [-jobs N] [-cache-dir DIR] [-cache-cap N] [-retries N] [-hedge D] [-kill N] [-seed N] [-timeout D] [-shard-urls URLS] [-request-timeout D] [-net-faults CLASSES] [-net-fault-rate R] [-net-seed N] [prog.pir...]
//	deepmc tier   [-addr :7500] -dir DIR [-cap N] [-flush-every D]
//
// Exit codes: 0 = clean, 1 = violations found (or a differential gate
// disagreed), 2 = the analysis itself failed, timed out, or produced
// only a partial report with nothing found — absence of warnings from a
// partial run proves nothing, so it must not exit 0.
//
// As in the paper (§4.5), the only required configuration is the
// persistency model the program intends to implement; everything else is
// derived from the program itself.
package main

import (
	"context"
	"flag"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"deepmc/internal/anacache"
	"deepmc/internal/cli"
	"deepmc/internal/core"
	"deepmc/internal/corpus"
	"deepmc/internal/crashsim"
	"deepmc/internal/faultinj"
	"deepmc/internal/fixer"
	"deepmc/internal/fleet"
	"deepmc/internal/fuzzsched"
	"deepmc/internal/ir"
	"deepmc/internal/netfault"
	"deepmc/internal/passes"
	"deepmc/internal/pmcontract"
	"deepmc/internal/serve"
	"deepmc/internal/soak"
	"deepmc/internal/workload"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(cli.ExitFailed)
	}
	var err error
	switch os.Args[1] {
	case "check":
		err = cmdCheck(os.Args[2:])
	case "run":
		err = cmdRun(os.Args[2:])
	case "corpus":
		err = cmdCorpus(os.Args[2:])
	case "passes":
		err = cmdPasses(os.Args[2:])
	case "traces":
		err = cmdTraces(os.Args[2:])
	case "fix":
		err = cmdFix(os.Args[2:])
	case "fmt":
		err = cmdFmt(os.Args[2:])
	case "crashsim":
		err = cmdCrashsim(os.Args[2:])
	case "fuzz":
		err = cmdFuzz(os.Args[2:])
	case "serve":
		err = cmdServe(os.Args[2:])
	case "tier":
		err = cmdTier(os.Args[2:])
	case "fleet":
		err = cmdFleet(os.Args[2:])
	case "soak":
		err = cmdSoak(os.Args[2:])
	case "-h", "--help", "help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "deepmc: unknown command %q\n", os.Args[1])
		usage()
		os.Exit(cli.ExitFailed)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "deepmc: %v\n", err)
		os.Exit(cli.ExitFailed)
	}
}

func usage() {
	fmt.Fprint(os.Stderr, `deepmc - persistency-model aware bug checking for NVM programs

commands:
  check   [-model strict|epoch|strand] [-pmodel x86|cxl] [-all] [-field=false]
          [-jobs N] [-timeout D]
          [-passes IDS] [-disable-pass ID]... [-cache-dir DIR] [-json] prog.pir...
          run the static checker (Tables 4 and 5 rules); -pmodel selects
          the hardware persistency contract (x86 clwb/sfence, or cxl
          with global persist barriers and a whole-heap persistence
          domain — the applicable pass set re-derives per contract, and
          -passes requests naming an inapplicable pass are errors);
          -jobs fans the worker-pool checker out (0 = GOMAXPROCS) with
          byte-identical output; -timeout bounds each module's analysis
          (partial reports annotate what was skipped);
          -passes/-disable-pass select the rule passes by stable ID
          (see "deepmc passes"); -cache-dir memoizes per-function
          results on disk, so re-runs over unchanged code skip straight
          to report assembly; -json emits the machine-readable report
  run     [-entry main] [-arg N]... [-timeout D] [-faults CLASSES] [-disable-pass ID]... prog.pir
          execute under the instrumented runtime (dynamic analysis);
          -faults injects legal persistency faults (torn, dropped,
          reordered, delayed, or "all") from -fault-seed; -disable-pass
          gates the dynamic detectors (DMC-D01 WAW, DMC-D02 RAW)
  corpus  [-name NAME] [-jobs N] [-timeout D] [-passes IDS] [-disable-pass ID]... [-cache-dir DIR]
          check the built-in buggy-framework corpus against ground truth
  passes  list every registered analysis pass: stable ID, kind,
          applicable models, severity, and what it checks
  traces  [-model ...] -fn NAME prog.pir
          dump the collected traces of one function
  fix     [-model ...] [-o out.pir] prog.pir
          check, auto-repair the mechanical bug classes, write the result
  fmt     prog.pir
          parse and pretty-print a PIR module
  crashsim [-jobs N] [-stride N] [-prune] [-entry main] [-timeout D] [-faults CLASSES] [prog.pir]
          with a file: enumerate its crash points and report pruning
          statistics; without one: cross-validate the static checker
          against crash enumeration over the built-in bug corpus, or —
          with -faults — run the per-class fault-injection differential
          gate over the same corpus
  fuzz    [-seed N] [-budget N] [-corpus-dir DIR] [-target NAME] [-timeout D]
          coverage-guided schedule fuzzing: mutate a seed-replayable
          genome of fault classes, delay-injection choice points, and a
          decision tape, executed under the dynamic runtime; every
          candidate finding is post-validated through crash simulation
          and reported with a replayable witness.  -target selects one
          built-in inter-thread target or a .pir file (default: all
          built-ins); -corpus-dir persists interesting genomes
  soak    [-app memcache|redis|nstore] [-clients N] [-partitions N] [-keys N]
          [-ops N] [-phases N] [-mix NAME] [-faults CLASSES] [-fault-rate R]
          [-seed N] [-tracked] [-buggy] [-pmodel x86|cxl]
          drive the instrumented app at production shape with concurrent
          clients, crash every partition between phases, run recovery,
          and audit the recovered image against every acknowledged
          write; -buggy plants the app's crash-consistency bug (exit 1
          when the audit witnesses an inconsistency); -tracked attaches
          the dynamic checker
  serve   [-addr :7437] [-jobs N] [-inflight N] [-queue N] [-timeout D]
          [-max-trace-entries N] [-drain D] [-cache-dir DIR]
          [-shard] [-tier URL]
          run the hardened analysis daemon: POST /analyze (PIR source or
          corpus target -> JSON report), GET /corpus/{name}, /healthz,
          /readyz, /stats; bounded admission queue sheds overload with
          429, per-request budgets degrade to partial reports, a rule
          that panics costs one function a rule-scan skip, and
          SIGINT/SIGTERM drains in-flight requests before flushing the
          disk cache; -shard prints SHARD_ADDR=<addr> once bound (fleet
          shard mode) and -tier plugs the daemon's cache into a shared
          HTTP verdict tier, flushed before drain exit
  tier    [-addr :7500] -dir DIR [-cap N] [-flush-every D]
          host the shared verdict tier as a standalone service:
          GET/PUT /tier/{key} in the anacache disk format, bodies
          checksum-verified in both directions (a corrupt entry is a
          cache miss, never a verdict); prints TIER_ADDR=<addr> once
          bound; SIGTERM flushes write-behind state to -dir
  fleet   [-shards N] [-model ...] [-all] [-jobs N] [-cache-dir DIR]
          [-cache-cap N] [-retries N] [-hedge D] [-kill N] [-seed N]
          [-timeout D] [-passes IDS] [-disable-pass ID]...
          [-shard-urls URLS] [-request-timeout D] [-net-faults CLASSES]
          [-net-fault-rate R] [-net-seed N] [prog.pir...]
          shard a batch analysis across N failure-independent workers
          (no files: the built-in corpus): consistent-hash placement,
          work-stealing, bounded retries with jittered backoff, hedged
          stragglers, circuit-breaker shard ejection with health-probe
          recovery, and a shared read-through/write-behind verdict
          tier; output is byte-identical to a single-node run at any
          shard count, -kill chaos included; -shard-urls sends jobs
          over HTTP to "deepmc serve -shard" daemons instead, with
          -net-faults injecting a seeded, replayable schedule of
          latency/slowbytes/reset/blackhole transport faults

exit codes: 0 clean, 1 violations/gate failure, 2 analysis failed or
timed out (partial report)
`)
}

// runContext builds the command's root context from a -timeout value
// (0 = no deadline).
func runContext(timeout time.Duration) (context.Context, context.CancelFunc) {
	if timeout <= 0 {
		return context.Background(), func() {}
	}
	return context.WithTimeout(context.Background(), timeout)
}

// faultFlags declares the -faults/-fault-seed/-fault-rate group on fs.
// The returned function lowers the parsed values into an injection
// config (nil when no classes are selected).
func faultFlags(fs *flag.FlagSet) func() (*faultinj.Config, error) {
	classes := fs.String("faults", "", "fault classes to inject (torn,dropped,reordered,delayed or \"all\")")
	seed := fs.Int64("fault-seed", 1, "fault-injection schedule seed")
	rate := fs.Float64("fault-rate", 1, "per-opportunity injection probability (0,1]")
	return func() (*faultinj.Config, error) {
		cls, err := faultinj.ParseClasses(*classes)
		if err != nil || len(cls) == 0 {
			return nil, err
		}
		return &faultinj.Config{Classes: cls, Rate: *rate, Seed: *seed}, nil
	}
}

// passFlags declares the -passes/-disable-pass group on fs.  The
// returned function lowers the parsed selection into cfg.
func passFlags(fs *flag.FlagSet) func(cfg *core.Config) {
	ids := fs.String("passes", "", "comma-separated pass IDs to enable (default: all; see 'deepmc passes')")
	var disable stringList
	fs.Var(&disable, "disable-pass", "pass ID to disable (repeatable)")
	return func(cfg *core.Config) {
		var enable []string
		for _, id := range strings.Split(*ids, ",") {
			if id = strings.TrimSpace(id); id != "" {
				enable = append(enable, id)
			}
		}
		cfg.Passes, cfg.DisablePasses = enable, disable
	}
}

// pmodelFlag declares -pmodel on fs; a non-empty note is the command's
// addendum to the shared help text.
func pmodelFlag(fs *flag.FlagSet, note string) *string {
	usage := "hardware persistency contract: x86 or cxl"
	if note != "" {
		usage += " (" + note + ")"
	}
	return fs.String("pmodel", "x86", usage)
}

func loadModule(path string) (*ir.Module, error) {
	src, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	m, err := ir.Parse(string(src))
	if err != nil {
		return nil, err
	}
	if err := ir.Verify(m); err != nil {
		return nil, err
	}
	return m, nil
}

func cmdCheck(args []string) error {
	fs := flag.NewFlagSet("check", flag.ExitOnError)
	model := fs.String("model", "strict", "persistency model the program implements")
	pmodel := pmodelFlag(fs, "x86 = clwb/sfence; cxl = global barriers + whole-heap persistence domain")
	all := fs.Bool("all", false, "check every function standalone, not just roots")
	field := fs.Bool("field", true, "field-sensitive points-to analysis")
	jobs := fs.Int("jobs", 0, "checker worker count (0 = GOMAXPROCS)")
	timeout := fs.Duration("timeout", 0, "per-module analysis deadline (0 = none)")
	selectPasses := passFlags(fs)
	cacheDir := fs.String("cache-dir", "", "content-hashed analysis cache directory (memoizes per-function results)")
	jsonOut := fs.Bool("json", false, "emit the machine-readable JSON report")
	fs.Parse(args)
	if fs.NArg() == 0 {
		return fmt.Errorf("check: no input files")
	}
	cfg := core.Config{
		Model: *model, PModel: *pmodel, AllFunctions: *all, FieldInsensitive: !*field,
		Workers: *jobs, ModuleTimeout: *timeout,
	}
	selectPasses(&cfg)
	if err := setupCache(&cfg, *cacheDir); err != nil {
		return err
	}
	jobList := make([]core.Job, fs.NArg())
	for i, path := range fs.Args() {
		m, err := loadModule(path)
		if err != nil {
			return err
		}
		jobList[i] = core.Job{Module: m, Config: cfg}
	}
	// Modules are analyzed concurrently, each with its own worker-pool
	// checker and deadline; reports come back in input order regardless.
	// A failed module yields a nil report slot, not a batch abort.
	reps, errs := core.AnalyzeJobs(context.Background(), jobList, *jobs)
	sawViol, sawFail := false, false
	for i, path := range fs.Args() {
		if reps[i] == nil {
			if *jsonOut {
				fmt.Printf("{\"file\":%q,\"error\":%q}\n", path, errs[i].Error())
			} else {
				fmt.Printf("== %s (model: %s)\nFAILED: %v\n", path, *model, errs[i])
			}
			sawFail = true
			continue
		}
		if *jsonOut {
			b, jerr := reps[i].JSON()
			if jerr != nil {
				return jerr
			}
			fmt.Printf("{\"file\":%q,\"report\":%s}\n", path, b)
		} else {
			fmt.Printf("== %s (model: %s)\n%s", path, *model, reps[i])
		}
		if len(reps[i].Warnings) > 0 {
			sawViol = true
		}
		if errs[i] != nil || reps[i].Partial() {
			sawFail = true
		}
	}
	// Violations outrank degradation: a partial report that already
	// found something actionable exits 1.
	if sawViol {
		os.Exit(cli.ExitViolations)
	}
	if sawFail {
		os.Exit(cli.ExitFailed)
	}
	return nil
}

func cmdRun(args []string) error {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	entry := fs.String("entry", "main", "entry function")
	timeout := fs.Duration("timeout", 0, "run deadline (0 = none)")
	faults := faultFlags(fs)
	pmodel := pmodelFlag(fs, "")
	selectPasses := passFlags(fs)
	var runArgs intList
	fs.Var(&runArgs, "arg", "integer argument (repeatable)")
	fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("run: need exactly one input file")
	}
	m, err := loadModule(fs.Arg(0))
	if err != nil {
		return err
	}
	fc, err := faults()
	if err != nil {
		return err
	}
	ctx, cancel := runContext(*timeout)
	defer cancel()
	cfg := core.Config{PModel: *pmodel}
	selectPasses(&cfg)
	rep, sched, err := core.RunDynamic(ctx, m, cfg, *entry, fc, runArgs...)
	if err != nil {
		return err
	}
	fmt.Print(rep)
	if sched != nil {
		fmt.Printf("%d faults injected (seed %d); schedule:\n%s",
			sched.Injections(), fc.Seed, sched.Log())
	}
	if len(rep.Warnings) > 0 {
		os.Exit(cli.ExitViolations)
	}
	if rep.Partial() {
		os.Exit(cli.ExitFailed)
	}
	return nil
}

func cmdCorpus(args []string) error {
	fs := flag.NewFlagSet("corpus", flag.ExitOnError)
	name := fs.String("name", "", "restrict to one framework")
	jobs := fs.Int("jobs", 0, "checker worker count (0 = GOMAXPROCS)")
	timeout := fs.Duration("timeout", 0, "whole-corpus deadline (0 = none)")
	selectPasses := passFlags(fs)
	cacheDir := fs.String("cache-dir", "", "content-hashed analysis cache directory")
	pmodel := pmodelFlag(fs, "")
	fs.Parse(args)
	cfg := core.Config{Workers: *jobs, PModel: *pmodel}
	selectPasses(&cfg)
	if err := setupCache(&cfg, *cacheDir); err != nil {
		return err
	}
	ctx, cancel := runContext(*timeout)
	defer cancel()
	partial := false
	for _, p := range corpus.All() {
		if *name != "" && p.Name != *name {
			continue
		}
		m, err := p.Module()
		if err != nil {
			return err
		}
		// Each program declares its own model; the shared cache carries
		// the rest of the configuration across programs.
		pcfg := cfg
		pcfg.Model = p.Model.String()
		rep, err := core.AnalyzeCtx(ctx, m, pcfg)
		if err != nil {
			return err
		}
		ev := corpus.Score(p, rep)
		fmt.Printf("== %s (model: %s): %d warnings, %d expected\n",
			p.Name, p.Model, len(ev.Report.Warnings), len(p.Truth))
		fmt.Print(ev.Report)
		if ev.Report.Partial() {
			partial = true
		}
		if miss := ev.Missing(); len(miss) > 0 {
			fmt.Printf("MISSING %d expected warnings\n", len(miss))
		}
		if len(ev.Unexpected) > 0 {
			fmt.Printf("UNEXPECTED %d warnings\n", len(ev.Unexpected))
		}
		fmt.Println()
	}
	if partial {
		fmt.Println("corpus run incomplete: deadline expired; scores above are partial")
		os.Exit(cli.ExitFailed)
	}
	return nil
}

func cmdPasses(args []string) error {
	fs := flag.NewFlagSet("passes", flag.ExitOnError)
	fs.Parse(args)
	fmt.Print(passes.List())
	return nil
}

func cmdTraces(args []string) error {
	fs := flag.NewFlagSet("traces", flag.ExitOnError)
	model := fs.String("model", "strict", "persistency model")
	fn := fs.String("fn", "", "function to dump")
	fs.Parse(args)
	if fs.NArg() != 1 || *fn == "" {
		return fmt.Errorf("traces: need -fn NAME and one input file")
	}
	m, err := loadModule(fs.Arg(0))
	if err != nil {
		return err
	}
	ts, err := core.Traces(m, core.Config{Model: *model}, *fn)
	if err != nil {
		return err
	}
	for i, t := range ts {
		fmt.Printf("-- trace %d\n%s", i, t)
	}
	return nil
}

func cmdFix(args []string) error {
	fs := flag.NewFlagSet("fix", flag.ExitOnError)
	model := fs.String("model", "strict", "persistency model")
	out := fs.String("o", "", "output file (default: stdout)")
	fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("fix: need exactly one input file")
	}
	m, err := loadModule(fs.Arg(0))
	if err != nil {
		return err
	}
	rep, err := core.Analyze(m, core.Config{Model: *model})
	if err != nil {
		return err
	}
	fixed, res := fixer.Fix(m, rep.Warnings)
	fmt.Fprint(os.Stderr, res)
	text := ir.Print(fixed)
	if *out == "" {
		fmt.Print(text)
		return nil
	}
	return os.WriteFile(*out, []byte(text), 0o644)
}

func cmdFmt(args []string) error {
	fs := flag.NewFlagSet("fmt", flag.ExitOnError)
	fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("fmt: need exactly one input file")
	}
	m, err := loadModule(fs.Arg(0))
	if err != nil {
		return err
	}
	fmt.Print(ir.Print(m))
	return nil
}

func cmdCrashsim(args []string) error {
	fs := flag.NewFlagSet("crashsim", flag.ExitOnError)
	jobs := fs.Int("jobs", 0, "enumeration worker count (0 = GOMAXPROCS)")
	stride := fs.Int("stride", 1, "check every Nth crash point")
	prune := fs.Bool("prune", true, "restrict crash points to persist-relevant boundaries")
	entry := fs.String("entry", "main", "entry function (file mode)")
	timeout := fs.Duration("timeout", 0, "enumeration deadline (0 = none)")
	faults := faultFlags(fs)
	pmodel := pmodelFlag(fs, "adds the device-failure image to every enumeration")
	fs.Parse(args)
	fc, err := faults()
	if err != nil {
		return err
	}
	ct, err := pmcontract.ParseContract(*pmodel)
	if err != nil {
		return err
	}
	o := crashsim.Options{Stride: *stride, Workers: *jobs, Prune: *prune, Faults: fc, Contract: ct}
	ctx, cancel := runContext(*timeout)
	defer cancel()

	if fs.NArg() == 0 {
		if fc != nil {
			// Fault-gate mode: per selected class, every bug must still
			// be detected under injection and every fix stay clean, with
			// a byte-replayable schedule.
			rs, err := corpus.FaultDifferential(ctx, fc.Seed, o, fc.Classes...)
			if err != nil {
				return err
			}
			fmt.Print(corpus.FormatFaultDiff(rs))
			if ctx.Err() != nil {
				fmt.Println("fault differential incomplete: deadline expired")
				os.Exit(cli.ExitFailed)
			}
			if !corpus.FaultDiffOK(rs) {
				os.Exit(cli.ExitViolations)
			}
			return nil
		}
		// Corpus mode: the differential harness — every model-violation
		// bug must be flagged statically, reproduced by a crash point,
		// and silenced by its fix.
		rep, err := corpus.CrossValidateCtx(ctx, o)
		if err != nil {
			return err
		}
		fmt.Print(rep)
		// The inter-thread pairs run the same three-way differential,
		// with the dynamic runtime standing in for the static checker
		// (their bugs are invisible to single-strand static analysis).
		itRep, err := corpus.CrossValidateInterThreadCtx(ctx, o)
		if err != nil {
			return err
		}
		fmt.Print(itRep)
		if ctx.Err() != nil {
			fmt.Println("cross-validation incomplete: deadline expired")
			os.Exit(cli.ExitFailed)
		}
		if !rep.Agree() || !itRep.Agree() {
			os.Exit(cli.ExitViolations)
		}
		return nil
	}

	// File mode: enumerate with a vacuous invariant to map the crash
	// surface — how many crash points survive pruning and deduping.
	partial := false
	for _, path := range fs.Args() {
		m, err := loadModule(path)
		if err != nil {
			return err
		}
		res, err := crashsim.EnumerateCtx(ctx, m, *entry, func(*crashsim.Image) error { return nil }, o)
		if err != nil {
			return err
		}
		fmt.Printf("== %s\n%s\n", path, res)
		if res.FaultLog != "" {
			fmt.Print(res.FaultLog)
		}
		if res.Partial {
			partial = true
		}
	}
	if partial {
		os.Exit(cli.ExitFailed)
	}
	return nil
}

func cmdFuzz(args []string) error {
	fs := flag.NewFlagSet("fuzz", flag.ExitOnError)
	seed := fs.Int64("seed", 1, "fuzzing seed (same seed -> same corpus, findings, witnesses)")
	budget := fs.Int("budget", 0, "schedule executions per target (0 = default)")
	corpusDir := fs.String("corpus-dir", "", "persist coverage-increasing genomes here and seed from them")
	target := fs.String("target", "", "built-in target name or a .pir file (empty = all built-ins)")
	timeout := fs.Duration("timeout", 0, "fuzzing deadline (0 = none)")
	pmodel := pmodelFlag(fs, "witnesses record and replay under it")
	fs.Parse(args)
	if fs.NArg() != 0 {
		return fmt.Errorf("fuzz: unexpected arguments %q (use -target)", fs.Args())
	}
	ctx, cancel := runContext(*timeout)
	defer cancel()

	var targets []fuzzsched.Target
	if *target != "" {
		t, err := fuzzsched.LookupTarget(*target)
		if err != nil {
			return err
		}
		targets = []fuzzsched.Target{t}
	} else {
		var err error
		targets, err = fuzzsched.Targets()
		if err != nil {
			return err
		}
	}

	found := false
	for _, t := range targets {
		res, err := fuzzsched.Fuzz(ctx, t, fuzzsched.Options{
			Seed: *seed, Budget: *budget, CorpusDir: *corpusDir, PModel: *pmodel,
		})
		if err != nil {
			return err
		}
		fmt.Println(res)
		for _, f := range res.Findings {
			found = true
			fmt.Printf("finding %s %s genome=%s\n", f.Target, f.Code, f.Genome)
			fmt.Print(indent(string(f.Witness.Encode())))
		}
	}
	if ctx.Err() != nil {
		fmt.Println("fuzzing incomplete: deadline expired")
		os.Exit(cli.ExitFailed)
	}
	if found {
		os.Exit(cli.ExitViolations)
	}
	return nil
}

// indent prefixes every non-empty line with two spaces.
func indent(s string) string {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	for i, l := range lines {
		if l != "" {
			lines[i] = "  " + l
		}
	}
	return strings.Join(lines, "\n") + "\n"
}

func cmdServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	addr := fs.String("addr", ":7437", "listen address")
	jobs := fs.Int("jobs", 0, "per-analysis worker cap (0 = GOMAXPROCS)")
	inflight := fs.Int("inflight", 0, "max concurrent analyses (0 = GOMAXPROCS)")
	queue := fs.Int("queue", 64, "admission queue depth beyond in-flight slots")
	timeout := fs.Duration("timeout", 30*time.Second, "per-request analysis deadline")
	maxEntries := fs.Int("max-trace-entries", 4096, "per-trace entry budget ceiling (requests may lower it, never raise it)")
	drain := fs.Duration("drain", 15*time.Second, "graceful-shutdown drain deadline")
	cacheDir := fs.String("cache-dir", "", "disk tier for the shared analysis cache (flushed on drain)")
	shard := fs.Bool("shard", false, "fleet-shard mode: print SHARD_ADDR=<addr> on stdout once the listener is bound (use -addr :0 for an ephemeral port)")
	tier := fs.String("tier", "", "shared verdict tier URL (read-through/write-behind; flushed on drain)")
	fs.Parse(args)
	if fs.NArg() != 0 {
		return fmt.Errorf("serve: unexpected arguments %q", fs.Args())
	}
	s, err := serve.NewServer(serve.Config{
		Addr:            *addr,
		Workers:         *jobs,
		MaxInFlight:     *inflight,
		QueueDepth:      *queue,
		RequestTimeout:  *timeout,
		MaxTraceEntries: *maxEntries,
		DrainTimeout:    *drain,
		CacheDir:        *cacheDir,
		TierURL:         *tier,
	})
	if err != nil {
		return err
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	if *shard {
		// Shard mode binds before announcing so the fleet controller can
		// read the resolved address (ephemeral ports included) from the
		// one stdout line, then dial immediately.
		l, lerr := net.Listen("tcp", *addr)
		if lerr != nil {
			return lerr
		}
		fmt.Printf("SHARD_ADDR=%s\n", l.Addr().String())
		os.Stdout.Sync()
		go func() { errc <- s.Serve(l) }()
	} else {
		go func() { errc <- s.ListenAndServe() }()
	}
	fmt.Fprintf(os.Stderr, "deepmc serve: listening on %s\n", *addr)
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	stop() // a second signal kills the process the default way
	fmt.Fprintf(os.Stderr, "deepmc serve: draining (deadline %s)\n", *drain)
	sctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := s.Shutdown(sctx); err != nil {
		return fmt.Errorf("serve: shutdown: %w", err)
	}
	fmt.Fprintln(os.Stderr, "deepmc serve: drained")
	return nil
}

// cmdTier hosts the shared verdict tier as a standalone HTTP service:
// the third piece of a wire-mode fleet deployment (shards mount it via
// `serve -shard -tier URL`).  GET/PUT /tier/{key} in the anacache disk
// format, checksum-verified in both directions; SIGTERM flushes the
// write-behind state to -dir before exit.
func cmdTier(args []string) error {
	fs := flag.NewFlagSet("tier", flag.ExitOnError)
	addr := fs.String("addr", ":7500", "listen address")
	dir := fs.String("dir", "", "disk directory backing the tier (required)")
	cap_ := fs.Int("cap", 0, "max disk entries, LRU-evicted (0 = unbounded)")
	flushEvery := fs.Duration("flush-every", 200*time.Millisecond, "write-behind flush cadence")
	fs.Parse(args)
	if fs.NArg() != 0 {
		return fmt.Errorf("tier: unexpected arguments %q", fs.Args())
	}
	if *dir == "" {
		return fmt.Errorf("tier: -dir is required")
	}
	tier, err := anacache.NewLazy(*dir)
	if err != nil {
		return err
	}
	if *cap_ > 0 {
		tier.SetDiskCap(*cap_)
	}
	stopFlush := tier.FlushLoop(*flushEvery)
	l, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	fmt.Printf("TIER_ADDR=%s\n", l.Addr().String())
	os.Stdout.Sync()
	srv := &http.Server{Handler: anacache.BackingHandler(tier)}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(l) }()
	fmt.Fprintf(os.Stderr, "deepmc tier: listening on %s (dir %s)\n", l.Addr().String(), *dir)
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	stop()
	sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	srv.Shutdown(sctx)
	if err := stopFlush(); err != nil {
		return fmt.Errorf("tier: flush: %w", err)
	}
	fmt.Fprintln(os.Stderr, "deepmc tier: flushed and stopped")
	return nil
}

func cmdFleet(args []string) error {
	fs := flag.NewFlagSet("fleet", flag.ExitOnError)
	shards := fs.Int("shards", 4, "failure-independent shard workers")
	model := fs.String("model", "strict", "persistency model for .pir inputs")
	all := fs.Bool("all", false, "check every function standalone")
	// Default 1, unlike check: the shards carry the fan-out.
	jobsN := fs.Int("jobs", 1, "per-analysis checker workers (0 = GOMAXPROCS; shard fan-out carries throughput)")
	cacheDir := fs.String("cache-dir", "", "shared verdict tier directory (read-through/write-behind)")
	cacheCap := fs.Int("cache-cap", 0, "max disk entries in the shared tier, LRU-evicted (0 = unbounded)")
	retries := fs.Int("retries", 2, "attributed-failure retries per job (0 = none); shard-death requeues are always free")
	hedge := fs.Duration("hedge", 500*time.Millisecond, "re-dispatch a straggling job to an idle shard after this long (0 = off)")
	kill := fs.Int("kill", 0, "chaos: kill and restart this many random shards mid-run")
	seed := fs.Int64("seed", 1, "chaos and backoff-jitter seed")
	timeout := fs.Duration("timeout", 0, "whole-run deadline (0 = none)")
	selectPasses := passFlags(fs)
	shardURLs := fs.String("shard-urls", "", "comma-separated shard daemon base URLs; jobs travel over HTTP instead of in-process workers (overrides -shards)")
	reqTimeout := fs.Duration("request-timeout", 30*time.Second, "per-request deadline against HTTP shards")
	netFaults := fs.String("net-faults", "", "inject transport faults against HTTP shards: all or comma-set of latency,slowbytes,reset,blackhole")
	netRate := fs.Float64("net-fault-rate", 0.1, "per-dial probability of each enabled network fault class")
	netSeed := fs.Int64("net-seed", 1, "network fault schedule seed (same seed = same per-dial schedule)")
	fs.Parse(args)

	base := core.Config{Model: *model, AllFunctions: *all, Workers: *jobsN}
	selectPasses(&base)
	var jobs []fleet.Job
	if fs.NArg() == 0 {
		for _, p := range corpus.All() {
			m, err := p.Module()
			if err != nil {
				return err
			}
			pcfg := base
			pcfg.Model = p.Model.String()
			// Corpus jobs carry their corpus name on the wire; HTTP
			// shards resolve the same registered program locally.
			jobs = append(jobs, fleet.Job{Name: p.Name, Module: m, Corpus: p.Name, Config: pcfg})
		}
	} else {
		for _, path := range fs.Args() {
			src, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			m, err := ir.Parse(string(src))
			if err != nil {
				return err
			}
			if err := ir.Verify(m); err != nil {
				return err
			}
			// Source is the file's exact bytes: HTTP shards parse the
			// same text, so line numbers in warnings cannot drift.
			jobs = append(jobs, fleet.Job{Name: path, Module: m, Source: string(src), Config: base})
		}
	}

	maxRetries := *retries
	if maxRetries <= 0 {
		maxRetries = -1 // fleet.Config: negative disables, zero selects the default
	}
	fcfg := fleet.Config{
		Shards:     *shards,
		CacheDir:   *cacheDir,
		CacheCap:   *cacheCap,
		MaxRetries: maxRetries,
		HedgeAfter: *hedge,
		Seed:       *seed,
	}
	if *shardURLs != "" {
		urls := strings.Split(*shardURLs, ",")
		fcfg.Shards = len(urls)
		fcfg.CacheDir = "" // the remote shards own the verdict tier
		var inj *netfault.Injector
		if *netFaults != "" {
			classes, perr := netfault.ParseClasses(*netFaults)
			if perr != nil {
				return fmt.Errorf("fleet: %w", perr)
			}
			inj = netfault.New(netfault.Config{Classes: classes, Rate: *netRate, Seed: *netSeed})
		}
		fcfg.NewTransport = func(shard int, _ *anacache.Cache) (fleet.Transport, error) {
			opts := fleet.HTTPOptions{RequestTimeout: *reqTimeout}
			if inj != nil {
				opts.Dial = inj.WrapDial(nil)
				opts.DisableKeepAlives = true // every request redials, so every request draws a fault plan
			}
			return fleet.NewHTTPTransport(strings.TrimSpace(urls[shard]), opts), nil
		}
		if *kill > 0 {
			return fmt.Errorf("fleet: -kill targets in-process shards; against -shard-urls kill the daemon processes instead")
		}
	}
	f, err := fleet.New(fcfg)
	if err != nil {
		return err
	}

	ctx, cancel := runContext(*timeout)
	defer cancel()

	chaosDone := make(chan struct{})
	if *kill > 0 {
		go func() {
			rng := rand.New(rand.NewSource(*seed))
			for i := 0; i < *kill; i++ {
				select {
				case <-chaosDone:
					return
				default:
				}
				s := rng.Intn(f.Shards())
				f.KillShard(s)
				time.Sleep(10 * time.Millisecond)
				if err := f.RestartShard(s); err != nil {
					fmt.Fprintf(os.Stderr, "deepmc fleet: restart shard %d: %v\n", s, err)
					return
				}
				time.Sleep(10 * time.Millisecond)
			}
		}()
	}
	res := f.Run(ctx, jobs)
	close(chaosDone)

	sawViol, sawFail := false, false
	for i, name := range res.Names {
		if res.Errs[i] != nil {
			fmt.Printf("== %s\nFAILED: %v\n", name, res.Errs[i])
			sawFail = true
			continue
		}
		fmt.Printf("== %s\n%s", name, res.Reports[i])
		if len(res.Reports[i].Warnings) > 0 {
			sawViol = true
		}
		if res.Reports[i].Partial() {
			sawFail = true
		}
	}
	st := f.StatsSnapshot()
	fmt.Printf("fleet: %d jobs over %d shards: completed=%d retries=%d steals=%d requeues=%d hedges=%d kills=%d restarts=%d\n",
		len(jobs), f.Shards(), st.Completed, st.Retries, st.Steals, st.Requeues, st.Hedges, st.Kills, st.Restarts)
	// Close before exiting: os.Exit skips defers, and Close is what
	// flushes the write-behind tier to -cache-dir.
	if cerr := f.Close(); cerr != nil {
		fmt.Fprintf(os.Stderr, "deepmc fleet: close: %v\n", cerr)
	}
	if sawViol {
		os.Exit(cli.ExitViolations)
	}
	if sawFail {
		os.Exit(cli.ExitFailed)
	}
	return nil
}

func cmdSoak(args []string) error {
	fs := flag.NewFlagSet("soak", flag.ExitOnError)
	app := fs.String("app", "memcache", "store under soak: memcache, redis, or nstore")
	clients := fs.Int("clients", 4, "concurrent client count")
	partitions := fs.Int("partitions", 2, "independent store partitions")
	keys := fs.Uint64("keys", 1024, "preloaded key-space size")
	opsPerClient := fs.Int("ops", 500, "operations per client per phase")
	phases := fs.Int("phases", 2, "traffic->crash->recover->audit cycles")
	mixName := fs.String("mix", "", "workload mix preset (memslap or YCSB name; empty = soak default)")
	faults := fs.String("faults", "", "fault classes to inject: torn,dropped,reordered,delayed or all")
	faultRate := fs.Float64("fault-rate", 0.2, "per-opportunity injection probability")
	seed := fs.Int64("seed", 1, "workload and fault-schedule seed")
	tracked := fs.Bool("tracked", false, "attach the dynamic checker to every partition")
	buggy := fs.Bool("buggy", false, "plant the app's crash-consistency bug (memcache, nstore)")
	pmodel := pmodelFlag(fs, "a whole-heap persistence domain heals the planted flush/fence bugs")
	fs.Parse(args)
	if fs.NArg() != 0 {
		return fmt.Errorf("soak: unexpected arguments %q", fs.Args())
	}
	ct, err := pmcontract.ParseContract(*pmodel)
	if err != nil {
		return err
	}
	cfg := soak.Config{
		App: *app, Clients: *clients, Partitions: *partitions,
		Keys: *keys, OpsPerClient: *opsPerClient, Phases: *phases,
		FaultRate: *faultRate, Seed: *seed,
		Tracked: *tracked, Buggy: *buggy,
		PModel: *pmodel,
	}
	if *mixName != "" {
		mix, err := lookupMix(*mixName)
		if err != nil {
			return err
		}
		cfg.Mix = mix
	}
	cls, err := faultinj.ParseClasses(*faults)
	if err != nil {
		return err
	}
	cfg.Faults = cls
	res, err := soak.Run(cfg)
	if err != nil {
		return err
	}
	fmt.Print(res.String())
	// Witnesses on a supposedly-fixed app are violations; a buggy run
	// is expected to witness, and silence there is the failure — except
	// under a persistence domain, where store-time durability heals the
	// planted flush/fence bugs and a clean buggy audit is the correct
	// outcome.
	expectWitness := cfg.Buggy && !ct.HasDomain()
	if cfg.Buggy && ct.HasDomain() {
		fmt.Printf("planted bug healed by the %s persistence domain: clean audit expected\n", ct.Name())
	}
	if (res.TotalWitnesses > 0) != expectWitness {
		os.Exit(cli.ExitViolations)
	}
	return nil
}

// lookupMix resolves a workload preset by name (memslap and YCSB sets).
func lookupMix(name string) (workload.Mix, error) {
	var names []string
	for _, set := range [][]workload.Mix{workload.MemslapMixes(), workload.YCSBMixes()} {
		for _, m := range set {
			if strings.EqualFold(m.Name, name) {
				return m, nil
			}
			names = append(names, m.Name)
		}
	}
	return workload.Mix{}, fmt.Errorf("soak: unknown mix %q (have %s)", name, strings.Join(names, ", "))
}

// setupCache enables the analysis cache when -cache-dir is given: one
// shared Cache instance, so every module of the invocation shares the
// in-memory tier on top of the disk tier.
func setupCache(cfg *core.Config, dir string) error {
	if dir == "" {
		return nil
	}
	c, err := anacache.New(dir)
	if err != nil {
		return err
	}
	cfg.Cache = c
	return nil
}

// stringList is a repeatable string flag (-disable-pass).
type stringList []string

func (l *stringList) String() string { return strings.Join(*l, ",") }

func (l *stringList) Set(s string) error {
	*l = append(*l, s)
	return nil
}

// intList is a repeatable -arg flag.
type intList []int64

func (l *intList) String() string { return fmt.Sprint([]int64(*l)) }

func (l *intList) Set(s string) error {
	v, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return err
	}
	*l = append(*l, v)
	return nil
}
