// Parallel checking: a worker-pool scheduler that collects traces in
// call-graph post-order waves and applies the rule set to independent
// functions concurrently, merging the per-function findings into a
// report that is byte-identical to a serial run.
//
// Two properties make the fan-out sound:
//
//   - The DSA result is immutable once Analyze returns (union-find
//     chains are flattened, so Find performs pure reads), and the trace
//     collector's memo is mutex-guarded with deterministic per-function
//     results, so workers share one cache and duplicate interprocedural
//     work is computed once.
//   - Warnings deduplicate by (rule, file, line), and the first-reported
//     message wins.  Workers therefore accumulate findings into private
//     reports, which are merged in module declaration order — exactly
//     the order a serial scan encounters them — before the final sort.
package checker

import (
	"context"
	"fmt"

	"deepmc/internal/fanout"
	"deepmc/internal/ir"
	"deepmc/internal/report"
)

// CheckModuleParallelCtx is CheckModule fanned out over the given
// number of worker goroutines (resolved by fanout.Workers: 0 =
// runtime.GOMAXPROCS, negative = 1), with
// cancellation and panic isolation.  It never returns an error: when
// ctx is done, trace exploration stops forking, unscanned functions are
// skipped, and every affected function gets a skip annotation on the
// (partial) report; a panic while scanning one function is recovered
// into a skip annotation without aborting sibling workers.  With a
// background context and no panics the report is byte-identical to
// CheckModule's, regardless of worker count or interleaving.
func (c *Checker) CheckModuleParallelCtx(ctx context.Context, workers int) *report.Report {
	return MergeOutcomes(c.CheckFunctionsCtx(ctx, workers, nil))
}

// FuncOutcome is one target function's contribution to a module check:
// its private per-function report plus, on degradation, the pipeline
// stage that did not run to completion.  A function omitted by the
// caller (its verdicts already known, e.g. cache-hit) has a nil Report
// and no skip.
type FuncOutcome struct {
	Func   string
	Report *report.Report
	// SkipStage / SkipReason annotate degradation (report.Stage*).
	SkipStage  string
	SkipReason string
}

// Complete reports whether the function was fully scanned: its findings
// are exhaustive and safe to memoize in a content-addressed cache.
func (o FuncOutcome) Complete() bool { return o.Report != nil && o.SkipReason == "" }

// CheckFunctionsCtx runs the rule passes over every target function and
// returns per-function outcomes in module declaration order — the
// pass-manager entry point underneath CheckModuleParallelCtx.  A non-nil
// omit predicate excludes functions whose verdicts the caller already
// has (content-addressed cache hits): their traces are not collected,
// they are not scanned, and their outcome carries a nil Report.
func (c *Checker) CheckFunctionsCtx(ctx context.Context, workers int, omit func(string) bool) []FuncOutcome {
	workers = fanout.Workers(workers)
	c.Collector.SetCancelled(func() bool { return ctx.Err() != nil })
	fns := c.targetFunctions()
	c.precomputeTraces(ctx, workers, c.neededFuncs(fns, omit))
	// Every needed function's traces are memoized now; scan them
	// concurrently, each worker into a private report.
	outs := make([]FuncOutcome, len(fns))
	fanout.Run(workers, len(fns), func(i int) {
		outs[i].Func = fns[i].Name
		if omit != nil && omit(fns[i].Name) {
			return
		}
		defer func() {
			if r := recover(); r != nil {
				outs[i].SkipStage = report.StageScan
				outs[i].SkipReason = fmt.Sprintf("scan panic recovered: %v", r)
			}
		}()
		if err := ctx.Err(); err != nil {
			outs[i].SkipStage = report.StageScan
			outs[i].SkipReason = fmt.Sprintf("not scanned: %v", err)
			return
		}
		rep := report.New()
		c.checkFunction(fns[i].Name, rep)
		if err := ctx.Err(); err != nil {
			// The walk may have stopped forking mid-function: findings
			// are real but possibly incomplete.
			outs[i].SkipStage = report.StageTraces
			outs[i].SkipReason = fmt.Sprintf("scan incomplete: %v", err)
		} else if c.Collector.Truncated(fns[i].Name) {
			// Trace collection hit the per-function entry budget: the
			// findings are real but cover only the bounded trace prefix,
			// so the report must say so (and the outcome must not be
			// memoized as complete).
			outs[i].SkipStage = report.StageBudget
			outs[i].SkipReason = fmt.Sprintf(
				"trace-entry budget (%d) exhausted: findings cover the bounded prefix only",
				c.Collector.Opts.MaxTraceEntries)
		}
		outs[i].Report = rep
	})
	return outs
}

// MergeOutcomes folds per-function outcomes into one sorted report.
// The fold happens in the given (module declaration) order, so warning
// deduplication keeps the same winner a serial scan keeps.
func MergeOutcomes(outs []FuncOutcome) *report.Report {
	merged := report.New()
	for _, o := range outs {
		if o.Report != nil {
			merged.Merge(o.Report)
		}
	}
	for _, o := range outs {
		if o.SkipReason != "" {
			merged.AddSkipStage(o.Func, o.SkipStage, o.SkipReason)
		}
	}
	merged.Sort()
	return merged
}

// neededFuncs returns the functions whose traces the scan phase will
// demand: the non-omitted targets plus their transitive callees.  With
// no omissions it returns nil, meaning "every function".
func (c *Checker) neededFuncs(targets []*ir.Function, omit func(string) bool) map[string]bool {
	if omit == nil {
		return nil
	}
	needed := make(map[string]bool)
	var mark func(name string)
	mark = func(name string) {
		if needed[name] {
			return
		}
		needed[name] = true
		if n := c.Analysis.CG.Nodes[name]; n != nil {
			for _, o := range n.Outs {
				mark(o.Func.Name)
			}
		}
	}
	for _, f := range targets {
		if !omit(f.Name) {
			mark(f.Name)
		}
	}
	return needed
}

// precomputeTraces fills the collector's memo for every needed function
// (nil = all), scheduling call-graph SCCs in post-order waves: all of a
// wave's callees live in earlier waves, so the SCCs within one wave are
// independent and can be collected concurrently.  Each SCC is entered
// through its first-declared member, which fixes the trace content of
// recursion cycles independently of worker count.  A done context stops
// scheduling further waves; a panic during collection is swallowed here
// and resurfaces (and is annotated) when the scan phase touches the
// same function.
func (c *Checker) precomputeTraces(ctx context.Context, workers int, needed map[string]bool) {
	for _, wave := range c.Analysis.CG.Waves() {
		if ctx.Err() != nil {
			return
		}
		wave := wave
		fanout.Run(workers, len(wave), func(i int) {
			defer func() { recover() }()
			for _, f := range wave[i] {
				if needed != nil && !needed[f.Name] {
					continue
				}
				c.Collector.Collect(f.Name)
			}
		})
	}
}
