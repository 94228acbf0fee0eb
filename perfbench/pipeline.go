package main

// The static pipeline rebuilt from its individual layer calls, so a
// traced run can time each layer from outside: check-cold runs it cold,
// serve-recheck re-enacts each request through it with a cache.  Both
// modes must render core.Analyze's bytes exactly; the workloads check
// that on every op.  The corpus ground-truth check both static
// workloads start from is here too.

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"deepmc/internal/anacache"
	"deepmc/internal/callgraph"
	"deepmc/internal/checker"
	"deepmc/internal/core"
	"deepmc/internal/corpus"
	"deepmc/internal/ir"
	"deepmc/internal/passes"
	"deepmc/internal/pmcontract"
	"deepmc/internal/report"
)

// The corpus's exact ground truth: the four frameworks' reports hold
// 50 warnings, 43 of them valid bugs.
const (
	corpusWarnings = 50
	corpusValid    = 43
)

// corpusBase is one corpus framework with its batch report.
type corpusBase struct {
	model, source string
	report        []byte // core.Analyze's report JSON
}

// corpusBaseline analyzes the four corpus frameworks with core.Analyze
// and reports whether the findings equal the ground truth exactly.
func corpusBaseline() ([]corpusBase, bool, error) {
	var out []corpusBase
	warnings, valid, exact := 0, 0, true
	for _, p := range corpus.All() {
		m, err := p.Module()
		if err != nil {
			return nil, false, err
		}
		rep, err := core.Analyze(m, core.Config{Model: p.Model.String(), Workers: 1})
		if err != nil {
			return nil, false, err
		}
		ev := corpus.Score(p, rep)
		exact = exact && ev.Exact()
		warnings += len(rep.Warnings)
		for _, g := range p.Truth {
			if g.Valid && ev.Matched[g.Key()] {
				valid++
			}
		}
		body, err := rep.JSON()
		if err != nil {
			return nil, false, err
		}
		out = append(out, corpusBase{model: p.Model.String(), source: p.Source, report: body})
	}
	return out, exact && warnings == corpusWarnings && valid == corpusValid, nil
}

// staticOptions lowers a core.Config that sets only Model (and one
// worker) into checker options the way core.Analyze does, and returns
// the enabled pass set the cache keys cover.
func staticOptions(model string) (checker.Options, map[string]bool, error) {
	if model == "" {
		model = "strict"
	}
	m, err := checker.ParseModel(model)
	if err != nil {
		return checker.Options{}, nil, err
	}
	ct, err := pmcontract.ParseContract("")
	if err != nil {
		return checker.Options{}, nil, err
	}
	enabled, err := passes.ResolveEnabledFor(nil, nil, ct.EffectiveID())
	if err != nil {
		return checker.Options{}, nil, err
	}
	opts := checker.DefaultOptions(m)
	opts.Contract = ct
	opts.DSA.FieldSensitive = true
	opts.Trace.PrioritizePersistent = true
	opts.Disabled = passes.DisabledStaticRules(enabled)
	return opts, enabled, nil
}

// cacheFacts are the configuration facts the cache keys hash, as
// core's cached path computes them.
func cacheFacts(opts checker.Options, enabled map[string]bool) (traceFacts, verdictFacts []string) {
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

// layeredAnalyze analyzes PIR text under model with one checker worker,
// one span per layer call, and returns the report JSON.  With a nil
// cache it is core.Analyze's cold path; with a cache it is the cached
// path: fingerprint, verdict lookups, and trace collection and scanning
// only for the functions that missed.  It adds the op's layer counters
// to counts.
func layeredAnalyze(tr *tracer, op int, text, model string, cache *anacache.Cache, counts map[string]float64) ([]byte, *report.Report, error) {
	root := tr.begin("op", op, -1)
	defer tr.end(root)
	var m *ir.Module
	var err error
	tr.timed("ir.parse", op, root, func() { m, err = ir.Parse(text) })
	if err != nil {
		return nil, nil, err
	}
	tr.timed("ir.verify", op, root, func() { err = ir.Verify(m) })
	if err != nil {
		return nil, nil, err
	}
	opts, enabled, err := staticOptions(model)
	if err != nil {
		return nil, nil, err
	}

	var fp *anacache.Fingerprints
	hits := map[string][]report.Warning{}
	var targets []string
	if cache != nil {
		traceFacts, verdictFacts := cacheFacts(opts, enabled)
		tr.timed("anacache.fingerprint", op, root, func() { fp = anacache.Fingerprint(m, traceFacts, verdictFacts) })
		for _, f := range callgraph.New(m).Roots() {
			targets = append(targets, f.Name)
		}
		tr.timed("anacache.lookup", op, root, func() {
			for _, fn := range targets {
				if ws, ok := cache.LookupVerdicts(fp.Verdict[fn]); ok {
					hits[fn] = ws
				}
			}
		})
	}

	var outs []checker.FuncOutcome
	if cache != nil && len(hits) == len(targets) {
		// Every verdict is memoized: no DSA, traces or scan.
		outs = make([]checker.FuncOutcome, len(targets))
		for i, fn := range targets {
			outs[i] = checker.FuncOutcome{Func: fn, Report: fragment(hits[fn])}
		}
	} else {
		var ck *checker.Checker
		tr.timed("dsa.analyze", op, root, func() { ck = checker.New(m, opts) })
		var omit func(string) bool
		if cache != nil {
			tr.timed("anacache.lookup", op, root, func() {
				for _, fn := range m.FuncNames() {
					if art, ok := cache.LookupTraces(fp.Trace[fn]); ok {
						ck.Collector.Seed(fn, art.Traces, art.Truncated)
					}
				}
			})
			omit = func(fn string) bool { _, ok := hits[fn]; return ok }
		}
		needed := neededFuncs(ck, omit)
		tr.timed("trace.collect", op, root, func() {
			for _, wave := range ck.Analysis.CG.Waves() {
				for _, scc := range wave {
					for _, f := range scc {
						if needed == nil || needed[f.Name] {
							ck.Collector.FunctionTraces(f.Name)
						}
					}
				}
			}
		})
		tr.timed("checker.scan", op, root, func() { outs = ck.CheckFunctionsCtx(context.Background(), 1, omit) })
		for _, fn := range ck.Collector.ComputedFuncs() {
			ts := ck.Collector.FunctionTraces(fn)
			counts["trace.traces"] += float64(len(ts))
			for _, t := range ts {
				counts["trace.entries"] += float64(len(t.Entries))
			}
			if ck.Collector.Truncated(fn) {
				counts["trace.truncated_funcs"]++
			}
		}
		if cache != nil {
			tr.timed("anacache.store", op, root, func() {
				for i := range outs {
					fn := outs[i].Func
					if ws, ok := hits[fn]; ok {
						outs[i].Report = fragment(ws)
						continue
					}
					if outs[i].Complete() {
						cache.StoreVerdicts(fp.Verdict[fn], outs[i].Report.Warnings, ck.Analysis.FuncSummary(fn))
					}
				}
				for _, fn := range ck.Collector.ComputedFuncs() {
					cache.StoreTraces(fp.Trace[fn], &anacache.TraceArtifact{
						Traces:    ck.Collector.FunctionTraces(fn),
						DSA:       ck.Analysis.FuncSummary(fn),
						Truncated: ck.Collector.Truncated(fn),
					})
				}
			})
		}
	}
	var rep *report.Report
	tr.timed("report.merge", op, root, func() { rep = checker.MergeOutcomes(outs) })
	rep.Contract = opts.Contract.Name()
	var body []byte
	tr.timed("report.json", op, root, func() { body, err = rep.JSON() })
	counts["checker.warnings"] += float64(len(rep.Warnings))
	return body, rep, err
}

// neededFuncs is the set whose traces a scan that omits the given
// functions demands: the other targets and their transitive callees
// (nil, meaning every function, when nothing is omitted).
func neededFuncs(ck *checker.Checker, omit func(string) bool) map[string]bool {
	if omit == nil {
		return nil
	}
	needed := map[string]bool{}
	var mark func(string)
	mark = func(name string) {
		if needed[name] {
			return
		}
		needed[name] = true
		if n := ck.Analysis.CG.Nodes[name]; n != nil {
			for _, o := range n.Outs {
				mark(o.Func.Name)
			}
		}
	}
	for _, f := range ck.Analysis.CG.Roots() {
		if !omit(f.Name) {
			mark(f.Name)
		}
	}
	return needed
}

// fragment rebuilds one function's private report from cached warnings.
func fragment(ws []report.Warning) *report.Report {
	rep := report.New()
	for _, w := range ws {
		rep.Add(w)
	}
	return rep
}
