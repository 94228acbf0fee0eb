// Package core is DeepMC's top-level facade: the paper's "set a flag in
// the compiler configuration" interface (§4.5).  A user picks a
// persistency model (-strict, -epoch or -strand), hands over a PIR
// module, and receives the combined static + dynamic report.
package core

import (
	"context"
	"fmt"
	"time"

	"deepmc/internal/anacache"
	"deepmc/internal/checker"
	"deepmc/internal/dynamic"
	"deepmc/internal/fanout"
	"deepmc/internal/faultinj"
	"deepmc/internal/interp"
	"deepmc/internal/ir"
	"deepmc/internal/passes"
	"deepmc/internal/pmcontract"
	"deepmc/internal/report"
	"deepmc/internal/trace"
)

// Config mirrors DeepMC's compile-time configuration.
type Config struct {
	// Model is the declared persistency model: "strict", "epoch" or
	// "strand" (the paper's single required flag).
	Model string
	// PModel is the hardware persistency contract: "x86" (or empty, the
	// default — clwb/sfence staging) or "cxl" (global persist barriers
	// with a device-side persistence domain covering the persistent
	// heap).  Orthogonal to Model: the persistency model says what order
	// the program promised, the contract says what the hardware durably
	// does.  The contract reshapes the applicable pass set (see
	// passes.ResolveEnabledFor) and every report is tagged with it.
	PModel string
	// AllFunctions checks every function standalone instead of root
	// traces only.
	AllFunctions bool
	// FieldInsensitive disables DSA field sensitivity (ablation).
	FieldInsensitive bool
	// MaxTraceEntries overrides the per-trace entry budget (default
	// 4096).  A function whose merged traces exceed it is analyzed up to
	// the cap and reported as partial with a budget-attributed skip —
	// the serve daemon's defense against pathological inputs whose
	// interprocedural splice would otherwise grow without bound.
	MaxTraceEntries int
	// MaxPaths overrides the per-function explored-path budget
	// (default 64).
	MaxPaths int
	// Workers is the number of concurrent static-checker workers,
	// resolved by fanout.Workers: 0 selects runtime.GOMAXPROCS(0), 1 or
	// less runs serially.  Any worker count produces a byte-identical
	// report: traces are collected in call-graph post-order waves into a
	// shared memoized cache, and per-function findings merge in module
	// declaration order.
	Workers int
	// ModuleTimeout bounds each module's analysis in AnalyzeJobs batch
	// runs; 0 means no per-module deadline.  A module that exceeds it
	// comes back as a partial report annotated with the skipped
	// functions, not as an error.
	ModuleTimeout time.Duration
	// Passes restricts the enabled pass set to the given pass IDs (see
	// package passes; `deepmc passes` lists them).  Empty enables every
	// registered pass.
	Passes []string
	// DisablePasses removes the named passes from the enabled set.
	// Disabling a pass removes exactly its diagnostics: gating happens
	// at the emission sites, so the shared scan state is unperturbed.
	DisablePasses []string
	// Cache memoizes per-function analysis artifacts (trace sets, DSA
	// summaries, per-pass verdicts) across runs and modules, keyed by
	// content fingerprints; see package anacache.  Nil analyzes cold.
	Cache *anacache.Cache
}

// workers resolves the configured worker count (fanout.Workers).
func (c Config) workers() int { return fanout.Workers(c.Workers) }

// contract parses the configured hardware persistency contract.
func (c Config) contract() (pmcontract.Contract, error) {
	return pmcontract.ParseContract(c.PModel)
}

// checkerOptions lowers the configuration.
func (c Config) checkerOptions() (checker.Options, error) {
	model, err := checker.ParseModel(orDefault(c.Model, "strict"))
	if err != nil {
		return checker.Options{}, err
	}
	ct, err := c.contract()
	if err != nil {
		return checker.Options{}, err
	}
	enabled, err := c.enabledPasses()
	if err != nil {
		return checker.Options{}, err
	}
	opts := checker.DefaultOptions(model)
	opts.Contract = ct
	opts.AllFunctions = c.AllFunctions
	opts.DSA.FieldSensitive = !c.FieldInsensitive
	if c.MaxTraceEntries > 0 {
		opts.Trace.MaxTraceEntries = c.MaxTraceEntries
	}
	if c.MaxPaths > 0 {
		opts.Trace.MaxPaths = c.MaxPaths
	}
	opts.Disabled = passes.DisabledStaticRules(enabled)
	return opts, nil
}

// enabledPasses resolves the configured pass selection against the
// registry (unknown IDs are errors, not silent no-ops) and the
// configured contract (explicitly selecting a pass inapplicable under
// -pmodel is an error too, never a silent no-op).
func (c Config) enabledPasses() (map[string]bool, error) {
	ct, err := c.contract()
	if err != nil {
		return nil, err
	}
	return passes.ResolveEnabledFor(c.Passes, c.DisablePasses, ct.EffectiveID())
}

func orDefault(s, d string) string {
	if s == "" {
		return d
	}
	return s
}

// Analyze runs DeepMC's offline (static) analysis over a module, using
// cfg.Workers concurrent checker workers.
func Analyze(m *ir.Module, cfg Config) (*report.Report, error) {
	return AnalyzeCtx(context.Background(), m, cfg)
}

// AnalyzeCtx is Analyze with cancellation and graceful degradation.
// Setup failures (verify, bad model) are errors; once checking starts a
// done context yields a partial report whose Skipped annotations name
// the functions not (fully) scanned — nil error, so completed findings
// are never discarded.
func AnalyzeCtx(ctx context.Context, m *ir.Module, cfg Config) (*report.Report, error) {
	if err := ir.Verify(m); err != nil {
		return nil, err
	}
	opts, err := cfg.checkerOptions()
	if err != nil {
		return nil, err
	}
	var rep *report.Report
	if cfg.Cache == nil {
		rep = checker.New(m, opts).CheckModuleParallelCtx(ctx, cfg.workers())
	} else {
		rep = analyzeCached(ctx, m, cfg, opts)
	}
	rep.Contract = opts.Contract.Name()
	return rep, nil
}

// Job pairs one module with its configuration for batch analysis.
type Job struct {
	Module *ir.Module
	Config Config
}

// AnalyzeJobs runs the static analysis over a batch of modules with up
// to workers modules in flight at once (resolved like Config.Workers: 0
// = runtime.GOMAXPROCS, negative = 1); each module's own check
// additionally fans out per its Config.Workers.  It returns every job's
// outcome individually: the slices align with jobs, and a slot has a
// report, an error, or — for a module canceled mid-analysis — a partial
// report with skip annotations and no error.  Completed reports are
// never discarded because a sibling failed.
//
//   - A job whose Config.ModuleTimeout is set runs under its own
//     deadline nested in ctx; exceeding it degrades that module to a
//     partial report without touching siblings.
//   - Once ctx itself is done, jobs not yet started fail fast with
//     ctx.Err().
//   - A panic inside one job (malformed module, rule bug) is recovered
//     into that job's error slot; sibling jobs keep running.
func AnalyzeJobs(ctx context.Context, jobs []Job, workers int) ([]*report.Report, []error) {
	reports := make([]*report.Report, len(jobs))
	errs := make([]error, len(jobs))
	fanout.Run(fanout.Workers(workers), len(jobs), func(i int) {
		defer func() {
			if r := recover(); r != nil {
				reports[i], errs[i] = nil, fmt.Errorf("core: job %d panicked: %v", i, r)
			}
		}()
		if err := ctx.Err(); err != nil {
			errs[i] = err
			return
		}
		jctx := ctx
		if t := jobs[i].Config.ModuleTimeout; t > 0 {
			var cancel context.CancelFunc
			jctx, cancel = context.WithTimeout(ctx, t)
			defer cancel()
		}
		reports[i], errs[i] = AnalyzeCtx(jctx, jobs[i].Module, jobs[i].Config)
	})
	return reports, errs
}

// RunDynamic executes an entry function under the instrumented runtime
// (online analysis) and returns the dynamic report.
//
//   - cfg's contract is modeled by the runtime (in-domain stores record
//     pre-flushed) and tags the report; cfg's pass selection gates the
//     dynamic detectors (DMC-D01 WAW, DMC-D02 RAW, DMC-D03 unflushed
//     RAW) at their emission sites, so disabling one leaves the others'
//     verdicts untouched.
//   - A non-nil faults wraps the runtime in deterministic fault
//     injection (package faultinj); the returned schedule carries the
//     injection log (nil when faults is nil).  The happens-before
//     detector sees the same event stream plus injected legal
//     perturbations — dropped flushes retried at fences keep the
//     GlobalFence epoch advancing, so strand-race verdicts converge.
//   - A run canceled mid-execution returns the findings accumulated so
//     far as a partial report (annotated, nil error) rather than
//     discarding them.
func RunDynamic(ctx context.Context, m *ir.Module, cfg Config, entry string, faults *faultinj.Config, args ...int64) (rep *report.Report, sched *faultinj.Schedule, err error) {
	enabled, err := cfg.enabledPasses()
	if err != nil {
		return nil, nil, err
	}
	ct, err := cfg.contract()
	if err != nil {
		return nil, nil, err
	}
	if err := ir.Verify(m); err != nil {
		return nil, nil, err
	}
	defer func() {
		if r := recover(); r != nil {
			rep, err = nil, fmt.Errorf("core: dynamic run of %s panicked: %v", entry, r)
		}
	}()
	rt := dynamic.NewRuntime(true)
	rt.Checker.Disabled = passes.DisabledDynamicCodes(enabled)
	rt.Contract = ct
	var hooks interp.Hooks = rt
	if faults != nil {
		sched = faultinj.New(*faults)
		hooks = faultinj.Wrap(rt, sched)
	}
	ip := interp.New(m, hooks)
	ip.SetContext(ctx)
	if _, rerr := ip.Run(entry, args...); rerr != nil {
		if ip.Canceled() {
			rep = rt.Checker.Report()
			rep.Contract = ct.Name()
			rep.AddSkipStage(entry, report.StageDynamic,
				fmt.Sprintf("dynamic run canceled after %d steps: %v", ip.Steps()-1, ctx.Err()))
			rep.Sort()
			return rep, sched, nil
		}
		return nil, sched, fmt.Errorf("core: dynamic run of %s: %w", entry, rerr)
	}
	rep = rt.Checker.Report()
	rep.Contract = ct.Name()
	return rep, sched, nil
}

// Traces exposes the collected traces of one function (CLI inspection).
// A function the module does not define is an error.
func Traces(m *ir.Module, cfg Config, fn string) ([]*trace.Trace, error) {
	if err := ir.Verify(m); err != nil {
		return nil, err
	}
	if m.Funcs[fn] == nil {
		return nil, fmt.Errorf("traces: module %s defines no function %q", m.Name, fn)
	}
	opts, err := cfg.checkerOptions()
	if err != nil {
		return nil, err
	}
	ck := checker.New(m, opts)
	return ck.Collector.FunctionTraces(fn), nil
}
