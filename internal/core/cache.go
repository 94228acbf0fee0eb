// Incremental analysis: AnalyzeCtx's cache-aware path.  With a Cache
// configured, every target function is first looked up by its content
// fingerprint; functions whose verdicts are memoized are omitted from
// the scan (and, transitively, from trace collection they alone would
// have demanded), and an all-hit run skips DSA and trace exploration
// entirely.  Cached and freshly computed per-function fragments merge
// in module declaration order, so a warm report is byte-identical to a
// cold one.
package core

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"deepmc/internal/anacache"
	"deepmc/internal/checker"
	"deepmc/internal/ir"
	"deepmc/internal/passes"
	"deepmc/internal/report"
)

// fingerprintFacts lowers the analysis configuration into the fact
// strings the content fingerprints hash.  Trace facts cover everything
// that shapes per-function traces and DSA; verdict facts additionally
// cover the model and the enabled pass set, so changing the rule
// selection misses the verdict tier but still reuses collected traces.
func fingerprintFacts(opts checker.Options, enabled map[string]bool) (traceFacts, verdictFacts []string) {
	alloc := append([]string(nil), opts.DSA.PersistentAllocFns...)
	sort.Strings(alloc)
	traceFacts = []string{
		fmt.Sprintf("loop=%d", opts.Trace.LoopIterations),
		fmt.Sprintf("maxpaths=%d", opts.Trace.MaxPaths),
		fmt.Sprintf("maxvariants=%d", opts.Trace.MaxCalleeVariants),
		fmt.Sprintf("maxentries=%d", opts.Trace.MaxTraceEntries),
		fmt.Sprintf("prioritize=%v", opts.Trace.PrioritizePersistent),
		fmt.Sprintf("fieldsensitive=%v", opts.DSA.FieldSensitive),
		"pallocfns=" + strings.Join(alloc, ","),
	}
	verdictFacts = []string{
		"model=" + opts.Model.String(),
		"contract=" + opts.Contract.Key(),
		"passes=" + passes.Version(enabled),
	}
	return traceFacts, verdictFacts
}

// fragment reconstitutes one function's cached warning list as the
// private per-function report the cold path would have produced;
// replaying through Add in stored order preserves intra-function
// deduplication winners.
func fragment(ws []report.Warning) *report.Report {
	rep := report.New()
	for _, w := range ws {
		rep.Add(w)
	}
	return rep
}

// analyzeCached is AnalyzeCtx's engine when cfg.Cache is set.  It
// never fails: cfg was validated by the caller and cache misses simply
// degrade to cold analysis.
func analyzeCached(ctx context.Context, m *ir.Module, cfg Config, opts checker.Options) *report.Report {
	enabled, _ := cfg.enabledPasses() // validated by checkerOptions
	traceFacts, verdictFacts := fingerprintFacts(opts, enabled)
	fp := anacache.Fingerprint(m, traceFacts, verdictFacts)

	// Target selection must not pay for DSA (the all-hit path skips it):
	// roots come from the syntactic call graph the fingerprint built,
	// which is exactly the graph the checker's analysis builds.
	targets := fp.Roots
	if opts.AllFunctions {
		targets = m.FuncNames()
	}

	hits := make(map[string][]report.Warning, len(targets))
	for _, fn := range targets {
		if ws, ok := cfg.Cache.LookupVerdicts(fp.Verdict[fn]); ok {
			hits[fn] = ws
		}
	}

	if len(hits) == len(targets) {
		// Warm path: every verdict is memoized — assemble the report
		// from the cached fragments and skip DSA, trace collection and
		// scanning outright.
		outs := make([]checker.FuncOutcome, len(targets))
		for i, fn := range targets {
			outs[i] = checker.FuncOutcome{Func: fn, Report: fragment(hits[fn])}
		}
		return checker.MergeOutcomes(outs)
	}

	ck := checker.New(m, opts)
	// Seed memoized trace sets so the precompute waves skip hit
	// functions' exploration; the scan still reads them via the memo.
	for _, fn := range m.FuncNames() {
		if art, ok := cfg.Cache.LookupTraces(fp.Trace[fn]); ok {
			ck.Collector.Seed(fn, art.Traces, art.Truncated)
		}
	}

	omit := func(fn string) bool { _, ok := hits[fn]; return ok }
	outs := ck.CheckFunctionsCtx(ctx, cfg.workers(), omit)
	for i := range outs {
		fn := outs[i].Func
		if ws, ok := hits[fn]; ok {
			outs[i].Report = fragment(ws)
			continue
		}
		// Memoize only complete outcomes of an uncanceled run: partial
		// trace sets and panic-degraded scans must never become hits.
		if outs[i].Complete() && ctx.Err() == nil {
			cfg.Cache.StoreVerdicts(fp.Verdict[fn], outs[i].Report.Warnings, ck.Analysis.FuncSummary(fn))
		}
	}
	if ctx.Err() == nil {
		// The tier keeps traces in their chain form, entries unfilled:
		// one form per trace, shared by every collector it seeds.
		for _, fn := range ck.Collector.ComputedFuncs() {
			cfg.Cache.StoreTraces(fp.Trace[fn], &anacache.TraceArtifact{
				Traces:    ck.Collector.Collect(fn),
				DSA:       ck.Analysis.FuncSummary(fn),
				Truncated: ck.Collector.Truncated(fn),
			})
		}
	}
	return checker.MergeOutcomes(outs)
}
