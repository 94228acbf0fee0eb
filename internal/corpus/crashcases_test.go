package corpus

import (
	"context"
	"fmt"
	"testing"

	"deepmc/internal/crashsim"
	"deepmc/internal/ir"
	"deepmc/internal/pmcontract"
	"deepmc/internal/report"
)

// TestCrashCasesBuild ensures every harness pair parses, verifies, and
// (for mechanical rules) is repaired by the fixer, and that each buggy
// harness runs the corpus's own code: the function holding the bug's
// file:line prints exactly as the corpus program's function of that
// name.
func TestCrashCasesBuild(t *testing.T) {
	cases, err := CrashCases()
	if err != nil {
		t.Fatal(err)
	}
	if len(cases) != 15 {
		t.Fatalf("built %d harness cases, want 15", len(cases))
	}
	mods, err := corpusModules()
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, c := range cases {
		key := report.Warning{Rule: report.Rule(c.Rule), File: c.File, Line: c.Line}.Key()
		if seen[key] {
			t.Errorf("duplicate harness for %s", key)
		}
		seen[key] = true
		f := funcAt(c.Buggy, c.File, c.Line)
		if f == nil {
			t.Errorf("%s %s:%d: no buggy harness instruction sits at the bug's line", c.Program, c.File, c.Line)
			continue
		}
		orig := mods[c.Program].Func(f.Name)
		if orig == nil || ir.PrintFunc(orig) != ir.PrintFunc(f) {
			t.Errorf("%s %s:%d: harness function %s is not the corpus program's own", c.Program, c.File, c.Line, f.Name)
		}
	}
}

// funcAt returns the function of m holding an instruction at file:line.
func funcAt(m *ir.Module, file string, line int) *ir.Function {
	for _, name := range m.FuncNames() {
		f := m.Funcs[name]
		if f.File != file {
			continue
		}
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				if in.Line == line {
					return f
				}
			}
		}
	}
	return nil
}

// TestCrossValidateAgreement is the differential acceptance gate: for
// every model-violation bug in the corpus, the static checker flags it,
// the crash enumerator reproduces it with a concrete crash point, and
// the repaired harness enumerates clean.
func TestCrossValidateAgreement(t *testing.T) {
	rep, err := CrossValidateCtx(context.Background(), crashsim.Options{Prune: true, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i := range rep.Outcomes {
		o := &rep.Outcomes[i]
		if o.Agree() {
			continue
		}
		t.Errorf("%s %s:%d %s: flagged=%v reproduced=%v fixed-clean=%v",
			o.Program, o.File, o.Line, o.Rule, o.Flagged, o.Reproduced, o.FixedClean)
		if !o.Reproduced {
			t.Logf("buggy result:\n%s", o.Buggy.Detail())
		}
		if !o.FixedClean {
			t.Logf("fixed result:\n%s", o.Fixed.Detail())
		}
	}
	if t.Failed() {
		t.Logf("report:\n%s", rep)
	}
}

// TestCrossValidateUnderCXL runs both oracles under a whole-heap
// persistence domain.  The domain heals exactly the bugs whose crash
// window it closes (neither oracle reports them, and the fix enumerates
// clean), and no case may be reproduced by crash enumeration while its
// oracle stays silent.  The semantic-mismatch bugs still agree; three
// disagreements remain (symlink.c:38, ITQUEUE and ITLOG: flagged, not
// reproduced).
func TestCrossValidateUnderCXL(t *testing.T) {
	o := crashsim.Options{Prune: true, Workers: 2, Contract: pmcontract.CXLContract(pmcontract.WholeDomain())}
	rep, err := CrossValidateCtx(context.Background(), o)
	if err != nil {
		t.Fatal(err)
	}
	itRep, err := CrossValidateInterThreadCtx(context.Background(), o)
	if err != nil {
		t.Fatal(err)
	}
	wantHealed := map[string]bool{
		"btree_map.c:201": true, "rbtree_map.c:379": true, "obj_pmemlog.c:130": true,
		"journal.c:632": true, "nvm_locks.c:932": true, "nvm_region.c:614": true,
		"nvm_region.c:933": true, "phlog_base.c:132": true,
	}
	healed := 0
	for _, r := range []*crashsim.CrossReport{rep, itRep} {
		for i := range r.Outcomes {
			c := &r.Outcomes[i]
			at := fmt.Sprintf("%s:%d", c.File, c.Line)
			if c.Healed != wantHealed[at] {
				t.Errorf("%s: healed=%v, want %v", at, c.Healed, wantHealed[at])
			}
			if c.Healed {
				healed++
			}
			if !c.Flagged && c.Reproduced {
				t.Errorf("%s: flagged=N reproduced=y under cxl (a missed bug)", at)
			}
		}
	}
	if healed != len(wantHealed) {
		t.Errorf("%d cases healed, want %d", healed, len(wantHealed))
	}
	if t.Failed() {
		t.Logf("report:\n%s%s", rep, itRep)
	}
}

// TestEnumerateDeterministicOverCorpus is the corpus-wide determinism
// gate: for every harness program, the rendered enumeration result must
// be byte-identical across worker counts 1/2/8 at every stride.
func TestEnumerateDeterministicOverCorpus(t *testing.T) {
	cases, err := CrashCases()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cases {
		for _, stride := range []int{1, 3} {
			var want string
			for _, workers := range []int{1, 2, 8} {
				res, err := crashsim.EnumerateOpts(c.Buggy, c.Entry, c.Invariant, crashsim.Options{
					Stride: stride, Workers: workers, Prune: true,
				})
				if err != nil {
					t.Fatal(err)
				}
				got := res.Detail()
				if workers == 1 {
					want = got
					continue
				}
				if got != want {
					t.Errorf("%s %s:%d stride=%d workers=%d: result differs from workers=1",
						c.Program, c.File, c.Line, stride, workers)
				}
			}
		}
	}
}

// TestCrossValidateDeterministic checks the report renders identically
// across worker counts and pruning modes (reproduction verdicts must
// not depend on scheduling).
func TestCrossValidateDeterministic(t *testing.T) {
	base, err := CrossValidateCtx(context.Background(), crashsim.Options{Prune: true, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{2, 8} {
		rep, err := CrossValidateCtx(context.Background(), crashsim.Options{Prune: true, Workers: w})
		if err != nil {
			t.Fatal(err)
		}
		if rep.String() != base.String() {
			t.Errorf("workers=%d: report differs from workers=1:\n%s\nvs\n%s", w, rep, base)
		}
	}
}
