// Persistency-contract gate and bench.  pmodelGate asserts the
// per-contract verdict matrix the contract refactor promises (bug under
// x86 + clean under a CXL persistence domain, CXL-only findings
// invisible to x86, empty-domain CXL byte-identical to x86, and
// deterministic CXL analysis at any worker count).  pmodelBench prices
// the two contracts against each other: the same commit workload on an
// x86 pool vs a CXL domain pool (with and without the flushes DMC-X01
// calls wasted), plus the static-analysis overhead of the CXL pass set.
package tables

import (
	"context"
	"fmt"
	"strings"
	"time"

	"deepmc/internal/core"
	"deepmc/internal/corpus"
	"deepmc/internal/fanout"
	"deepmc/internal/nvm"
	"deepmc/internal/pmcontract"
)

// pmodelGate is the CI gate for the persistency-contract abstraction.
// It renders the full differential report and fails if any matrix cell
// diverges from the contract semantics.
func pmodelGate() Result {
	ctx := context.Background()
	w := fanout.Workers(Workers)

	rs, err := corpus.PModelDifferential(ctx, w)
	if err != nil {
		return fail("pmodel gate", err)
	}
	crash, err := corpus.CrashPModelDifferential(ctx, w)
	if err != nil {
		return fail("pmodel gate", err)
	}
	checked, diverged, err := corpus.PModelEquivalence(ctx, w)
	if err != nil {
		return fail("pmodel gate", err)
	}

	s, ok := corpus.FormatPModelDiff(rs, crash, checked, diverged)
	return Result{Text: s, OK: ok}
}

// pmodelBenchResult is the BENCH_pmodel.json schema.
type pmodelBenchResult struct {
	Jobs    int `json:"jobs"`
	Records int `json:"records"`
	// Simulated pool time for the same record-commit workload.
	X86Ns        int64   `json:"x86_ns"`         // store+clwb+sfence per record
	CXLLegacyNs  int64   `json:"cxl_legacy_ns"`  // x86-idiomatic code on a domain pool
	CXLBarrierNs int64   `json:"cxl_barrier_ns"` // contract-aware: stores + batched barriers
	Speedup      float64 `json:"speedup"`        // x86_ns / cxl_barrier_ns
	DomainStores uint64  `json:"domain_stores"`  // store-time-durable stores (barrier run)
	WastedFlush  uint64  `json:"wasted_flushes"` // DMC-X01 flushes in the legacy-on-CXL run
	// Wall-clock static analysis of the whole corpus per contract.
	AnalysisX86Ns int64   `json:"analysis_x86_ns"`
	AnalysisCXLNs int64   `json:"analysis_cxl_ns"`
	AnalysisRatio float64 `json:"analysis_ratio"` // cxl / x86
}

// pmodelWorkload commits n 64-byte records on the pool.  flush issues a
// clwb per record; fenceEvery issues the contract's barrier every k
// records (and once at the end).  Returns the pool's simulated time.
func pmodelWorkload(p *nvm.Pool, n int, flush bool, fenceEvery int) (nvm.Stats, error) {
	rec := make([]byte, nvm.CachelineSize)
	for i := range rec {
		rec[i] = byte(i)
	}
	for i := 0; i < n; i++ {
		addr, err := p.Alloc(nvm.CachelineSize)
		if err != nil {
			return nvm.Stats{}, err
		}
		if err := p.Store(addr, rec); err != nil {
			return nvm.Stats{}, err
		}
		if flush {
			if err := p.Flush(addr, nvm.CachelineSize); err != nil {
				return nvm.Stats{}, err
			}
		}
		if fenceEvery > 0 && (i+1)%fenceEvery == 0 {
			p.Fence()
		}
	}
	p.Fence()
	return p.Stats(), nil
}

// pmodelBench prices the x86 contract against the CXL contract.  Three
// pool runs share one
// workload (commit 4096 records): x86-idiomatic store+clwb+sfence on an
// x86 pool, the same code on a whole-domain CXL pool (the flushes are
// the waste DMC-X01 flags), and contract-aware CXL code that drops the
// flushes and batches global persist barriers.  The analysis half times
// the whole-corpus static scan under each -pmodel.
func pmodelBench() Result {
	workers := fanout.Workers(Workers)
	const records = 4096
	const batch = 64

	x86Pool := nvm.NewPool(nvm.Config{})
	x86St, err := pmodelWorkload(x86Pool, records, true, 1)
	if err != nil {
		return fail("pmodel bench", err)
	}
	legacyPool := nvm.NewCXLPool(nvm.Config{}, pmcontract.WholeDomain())
	legacySt, err := pmodelWorkload(legacyPool, records, true, 1)
	if err != nil {
		return fail("pmodel bench", err)
	}
	barrierPool := nvm.NewCXLPool(nvm.Config{}, pmcontract.WholeDomain())
	barrierSt, err := pmodelWorkload(barrierPool, records, false, batch)
	if err != nil {
		return fail("pmodel bench", err)
	}

	// One whole-corpus static analysis under the given -pmodel, best of
	// rounds.
	const rounds = 3
	analyze := func(pmodel string) (time.Duration, error) {
		jobs, err := corpusJobs(core.Config{Workers: workers, PModel: pmodel})
		if err != nil {
			return 0, err
		}
		d, _, err := bestOf(rounds, func() (string, error) { return batchRender(jobs) })
		return d, err
	}
	anaX86, err := analyze("x86")
	if err != nil {
		return fail("pmodel bench", err)
	}
	anaCXL, err := analyze("cxl")
	if err != nil {
		return fail("pmodel bench", err)
	}

	res := pmodelBenchResult{
		Jobs:          workers,
		Records:       records,
		X86Ns:         x86St.SimulatedNs,
		CXLLegacyNs:   legacySt.SimulatedNs,
		CXLBarrierNs:  barrierSt.SimulatedNs,
		Speedup:       float64(x86St.SimulatedNs) / float64(barrierSt.SimulatedNs),
		DomainStores:  barrierSt.DomainStores,
		WastedFlush:   legacySt.DomainFlushes,
		AnalysisX86Ns: anaX86.Nanoseconds(),
		AnalysisCXLNs: anaCXL.Nanoseconds(),
		AnalysisRatio: float64(anaCXL) / float64(anaX86),
	}
	var b strings.Builder
	b.WriteString("Persistency contract: x86 vs CXL, same commit workload\n")
	b.WriteString("------------------------------------------------------\n")
	fmt.Fprintf(&b, "%d records of %d bytes, simulated pool time\n", records, nvm.CachelineSize)
	fmt.Fprintf(&b, "  x86 store+clwb+sfence:     %12d ns\n", res.X86Ns)
	fmt.Fprintf(&b, "  cxl, x86-idiomatic code:   %12d ns  (%d wasted in-domain flushes — DMC-X01)\n",
		res.CXLLegacyNs, res.WastedFlush)
	fmt.Fprintf(&b, "  cxl, batched barriers:     %12d ns  (%d store-time-durable stores, barrier every %d)\n",
		res.CXLBarrierNs, res.DomainStores, batch)
	fmt.Fprintf(&b, "  contract-aware speedup:    %12.2fx\n", res.Speedup)
	fmt.Fprintf(&b, "whole-corpus static analysis, jobs %d, best of %d rounds\n", workers, rounds)
	fmt.Fprintf(&b, "  -pmodel x86:               %12s\n", anaX86.Round(time.Microsecond))
	fmt.Fprintf(&b, "  -pmodel cxl:               %12s  (%.2fx)\n", anaCXL.Round(time.Microsecond), res.AnalysisRatio)
	return Result{Text: b.String(), Bench: res, OK: true}
}
