package corpus

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"deepmc/internal/checker"
	"deepmc/internal/crashsim"
	"deepmc/internal/ir"
	"deepmc/internal/passes"
	"deepmc/internal/pmcontract"
	"deepmc/internal/report"
)

// This file runs the persistency-contract differential gate: a set of
// minimal programs that are bugs under exactly one hardware contract,
// checked under both.  The gate holds when
//
//   - every x86-only bug is detected under x86 and clean under a CXL
//     persistence domain (store-time durability discharges the flush
//     obligation),
//   - every CXL-only finding (a flush of domain data, a domain write no
//     global barrier ever commits) is reported under the CXL contract
//     and invisible under x86,
//   - an empty-domain CXL contract produces byte-identical reports to
//     x86 over the whole Table 1 corpus (the contract-equivalence
//     property), at every worker count tried, and
//   - the crash simulator agrees: the unflushed-write crash window
//     exists under x86 and not under a CXL domain.

// PModelCase is one contract-differential program with its expected
// rule sets under each contract.
type PModelCase struct {
	Name   string
	Model  checker.Model
	Source string
	// X86Rules / CXLRules are the exact expected warning rule multisets
	// (sorted) when checking under the x86 contract and under a CXL
	// whole-heap persistence domain respectively.
	X86Rules []report.Rule
	CXLRules []report.Rule
}

// PModelCases returns the contract-differential corpus.
func PModelCases() []PModelCase {
	const hdr = `
module pm

type rec struct {
	v: int
}

`
	return []PModelCase{
		{
			// Bug under x86 (the store reaches the fence with no covering
			// flush), correct under a persistence domain (durable at store
			// time; the fence is the committing barrier).
			Name:  "store_fence",
			Model: checker.Strict,
			Source: hdr + `func f() {
	%p = palloc rec
	store %p.v, 1 @10
	fence         @11
	ret
}
`,
			X86Rules: []report.Rule{report.RuleUnflushedWrite},
			CXLRules: nil,
		},
		{
			// Correct under x86; under a domain the flush buys nothing —
			// the CXL-only performance finding invisible to the x86 rules.
			Name:  "store_flush_fence",
			Model: checker.Strict,
			Source: hdr + `func f() {
	%p = palloc rec
	store %p.v, 1 @10
	flush %p.v    @11
	fence         @12
	ret
}
`,
			X86Rules: nil,
			CXLRules: []report.Rule{report.RuleFlushInPersistDomain},
		},
		{
			// Never persisted under x86 (unflushed write); under a domain
			// the store is durable but no barrier ever commits it against
			// device failure — the obligation re-keys to DMC-X02.
			Name:  "store_only",
			Model: checker.Strict,
			Source: hdr + `func f() {
	%p = palloc rec
	store %p.v, 1 @10
	ret
}
`,
			X86Rules: []report.Rule{report.RuleUnflushedWrite},
			CXLRules: []report.Rule{report.RuleMissingGlobalBarrier},
		},
	}
}

// analyzeContract checks a module under an explicit contract with the
// contract-applicable pass set, mirroring the core pipeline's gating.
func analyzeContract(ctx context.Context, m *ir.Module, model checker.Model, ct pmcontract.Contract, workers int) (*report.Report, error) {
	enabled, err := passes.ResolveEnabledFor(nil, nil, ct.EffectiveID())
	if err != nil {
		return nil, err
	}
	opts := checker.DefaultOptions(model)
	opts.Contract = ct
	opts.Disabled = passes.DisabledStaticRules(enabled)
	rep := checker.New(m, opts).CheckModuleParallelCtx(ctx, workers)
	rep.Contract = ct.Name()
	return rep, nil
}

// rulesOf returns the report's warning rules as a sorted multiset.
func rulesOf(rep *report.Report) []report.Rule {
	out := make([]report.Rule, 0, len(rep.Warnings))
	for _, w := range rep.Warnings {
		out = append(out, w.Rule)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func rulesEqual(a, b []report.Rule) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// PModelDiffResult is one differential case's verdict.
type PModelDiffResult struct {
	Case string
	// X86OK / CXLOK: the static report under each contract matched the
	// expected rule set exactly.
	X86OK, CXLOK bool
	// EquivOK: an empty-domain CXL contract produced a byte-identical
	// report to x86 for this case.
	EquivOK bool
	// DetOK: the CXL report is byte-identical at 1 worker and at the
	// gate's worker count.
	DetOK bool
	// X86Rules / CXLRules are the observed rule sets (for the report).
	X86Rules, CXLRules []report.Rule
}

// OK reports whether the case passed every check.
func (r PModelDiffResult) OK() bool { return r.X86OK && r.CXLOK && r.EquivOK && r.DetOK }

func fmtRules(rs []report.Rule) string {
	if len(rs) == 0 {
		return "clean"
	}
	parts := make([]string, len(rs))
	for i, r := range rs {
		parts[i] = string(r)
	}
	return strings.Join(parts, ",")
}

// String renders the one-line verdict used by the CLI gate.
func (r PModelDiffResult) String() string {
	verdict := "PASS"
	if !r.OK() {
		verdict = "FAIL"
	}
	mark := func(ok bool) string {
		if ok {
			return "ok"
		}
		return "MISMATCH"
	}
	return fmt.Sprintf("%-18s x86=%-24s [%s]  cxl=%-28s [%s]  equiv=%s det=%s  %s",
		r.Case, fmtRules(r.X86Rules), mark(r.X86OK), fmtRules(r.CXLRules), mark(r.CXLOK),
		mark(r.EquivOK), mark(r.DetOK), verdict)
}

// PModelDiffOK reports whether every case passed.
func PModelDiffOK(rs []PModelDiffResult) bool {
	for _, r := range rs {
		if !r.OK() {
			return false
		}
	}
	return len(rs) > 0
}

// PModelDifferential checks every contract-differential case under both
// contracts.  workers is the parallel worker count used for the
// determinism cross-check (values < 2 still cross-check against 2).
func PModelDifferential(ctx context.Context, workers int) ([]PModelDiffResult, error) {
	if workers < 2 {
		workers = 2
	}
	var out []PModelDiffResult
	for _, c := range PModelCases() {
		m, err := ir.Parse(c.Source)
		if err != nil {
			return nil, fmt.Errorf("pmodeldiff %s: %w", c.Name, err)
		}
		if err := ir.Verify(m); err != nil {
			return nil, fmt.Errorf("pmodeldiff %s: %w", c.Name, err)
		}
		x86, err := analyzeContract(ctx, m, c.Model, pmcontract.X86Contract(), 1)
		if err != nil {
			return nil, err
		}
		cxl, err := analyzeContract(ctx, m, c.Model, pmcontract.CXLContract(pmcontract.WholeDomain()), 1)
		if err != nil {
			return nil, err
		}
		cxlPar, err := analyzeContract(ctx, m, c.Model, pmcontract.CXLContract(pmcontract.WholeDomain()), workers)
		if err != nil {
			return nil, err
		}
		empty, err := analyzeContract(ctx, m, c.Model, pmcontract.CXLContract(pmcontract.Domain{}), 1)
		if err != nil {
			return nil, err
		}
		r := PModelDiffResult{
			Case:     c.Name,
			X86Rules: rulesOf(x86),
			CXLRules: rulesOf(cxl),
		}
		r.X86OK = rulesEqual(r.X86Rules, c.X86Rules)
		r.CXLOK = rulesEqual(r.CXLRules, c.CXLRules)
		// The contract tag itself differs by construction; equivalence is
		// about the findings, compared rendered.
		r.EquivOK = x86.String() == empty.String()
		r.DetOK = cxl.String() == cxlPar.String()
		out = append(out, r)
	}
	return out, nil
}

// PModelEquivalence checks the contract-equivalence property over the
// full Table 1 corpus: an empty-domain CXL contract must produce a
// byte-identical report to x86 for every program, at 1 worker and at
// the given worker count.  It returns how many (program, workers)
// configurations were checked and which diverged.
func PModelEquivalence(ctx context.Context, workers int) (checked int, diverged []string, err error) {
	if workers < 2 {
		workers = 2
	}
	for _, p := range All() {
		m, merr := p.Module()
		if merr != nil {
			return checked, diverged, merr
		}
		for _, w := range []int{1, workers} {
			x86, aerr := analyzeContract(ctx, m, p.Model, pmcontract.X86Contract(), w)
			if aerr != nil {
				return checked, diverged, aerr
			}
			empty, aerr := analyzeContract(ctx, m, p.Model, pmcontract.CXLContract(pmcontract.Domain{}), w)
			if aerr != nil {
				return checked, diverged, aerr
			}
			checked++
			if x86.String() != empty.String() {
				diverged = append(diverged, fmt.Sprintf("%s@%dw", p.Name, w))
			}
		}
	}
	return checked, diverged, nil
}

// crashPModelSrc is the commit-protocol unflushed-write bug: data is
// never flushed before the flag claims it durable.
const crashPModelSrc = `
module commit

type rec struct {
	data: int
	flag: int
}

func main() {
	%r = palloc rec
	store %r.data, 7
	store %r.flag, 1
	flush %r.flag
	fence
	ret
}
`

// CrashPModelResult is the crash-simulation cell of the contract
// matrix.
type CrashPModelResult struct {
	// X86Detected: the unflushed-write bug has a violating crash point
	// under the x86 discard rule.
	X86Detected bool
	// CXLClean: the same program enumerates clean under a CXL
	// persistence domain (store-time durability closes the window).
	CXLClean bool
	// EmptyDomainSame: an empty-domain CXL contract enumerates
	// byte-identically to x86.
	EmptyDomainSame bool
}

// OK reports whether the crash-simulation cell holds.
func (r CrashPModelResult) OK() bool { return r.X86Detected && r.CXLClean && r.EmptyDomainSame }

// String renders the one-line verdict.
func (r CrashPModelResult) String() string {
	verdict := "PASS"
	if !r.OK() {
		verdict = "FAIL"
	}
	return fmt.Sprintf("crashsim           x86-detected=%v cxl-clean=%v empty-domain-identical=%v  %s",
		r.X86Detected, r.CXLClean, r.EmptyDomainSame, verdict)
}

// CrashPModelDifferential runs the crash-simulation cell of the
// contract matrix.
func CrashPModelDifferential(ctx context.Context, workers int) (CrashPModelResult, error) {
	var res CrashPModelResult
	m, err := ir.Parse(crashPModelSrc)
	if err != nil {
		return res, err
	}
	inv := func(im *crashsim.Image) error {
		flag, ok := im.LoadField(1, "flag")
		if !ok || flag == 0 {
			return nil
		}
		if data, _ := im.LoadField(1, "data"); data != 7 {
			return fmt.Errorf("flag durable but data = %d", data)
		}
		return nil
	}
	x86, err := crashsim.EnumerateCtx(ctx, m, "main", inv, crashsim.Options{Workers: workers, Prune: true})
	if err != nil {
		return res, err
	}
	cxl, err := crashsim.EnumerateCtx(ctx, m, "main", inv, crashsim.Options{
		Workers: workers, Prune: true,
		Contract: pmcontract.CXLContract(pmcontract.WholeDomain()),
	})
	if err != nil {
		return res, err
	}
	empty, err := crashsim.EnumerateCtx(ctx, m, "main", inv, crashsim.Options{
		Workers: workers, Prune: true,
		Contract: pmcontract.CXLContract(pmcontract.Domain{}),
	})
	if err != nil {
		return res, err
	}
	res.X86Detected = !x86.Clean()
	res.CXLClean = cxl.Clean()
	res.EmptyDomainSame = x86.Detail() == empty.Detail()
	return res, nil
}

// FormatPModelDiff renders the whole contract-differential gate report
// and reports whether the gate passed: every case, the crash cell and
// the corpus equivalence over at least one configuration.
func FormatPModelDiff(rs []PModelDiffResult, crash CrashPModelResult, equivChecked int, equivDiverged []string) (string, bool) {
	var b strings.Builder
	b.WriteString("persistency-contract differential: per-case verdict matrix\n")
	for _, r := range rs {
		b.WriteString("  " + r.String() + "\n")
	}
	b.WriteString("  " + crash.String() + "\n")
	eq := "PASS"
	if len(equivDiverged) > 0 || equivChecked == 0 {
		eq = "FAIL: " + strings.Join(equivDiverged, ", ")
	}
	fmt.Fprintf(&b, "  corpus equivalence: empty-domain cxl == x86 over %d configurations  %s\n", equivChecked, eq)
	ok := PModelDiffOK(rs) && crash.OK() && len(equivDiverged) == 0 && equivChecked > 0
	verdict := "PASS"
	if !ok {
		verdict = "FAIL"
	}
	fmt.Fprintf(&b, "pmodel differential: %s\n", verdict)
	return b.String(), ok
}
