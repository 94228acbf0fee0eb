package checker_test

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"deepmc/internal/checker"
	"deepmc/internal/core"
	"deepmc/internal/corpus"
	"deepmc/internal/ir"
	"deepmc/internal/pmcontract"
)

// scanConfigs lists every option set the shared scan is compared under:
// each model and contract, root and all-function scopes, and the default
// and a tight trace budget (the tight one truncates, so variants are
// flattened to their prefixes and traces end early).
func scanConfigs() []checker.Options {
	var out []checker.Options
	for _, model := range []checker.Model{checker.Strict, checker.Epoch, checker.Strand} {
		for _, contract := range []pmcontract.Contract{pmcontract.X86Contract(), pmcontract.CXLContract(pmcontract.WholeDomain())} {
			for _, all := range []bool{false, true} {
				for _, tight := range []bool{false, true} {
					o := checker.DefaultOptions(model)
					o.Contract = contract
					o.AllFunctions = all
					if tight {
						o.Trace.MaxTraceEntries = 64
						o.Trace.MaxPaths = 8
					}
					out = append(out, o)
				}
			}
		}
	}
	return out
}

func configName(o checker.Options) string {
	return fmt.Sprintf("%s/%s/all=%t/entries=%d", o.Model, o.Contract.Name(), o.AllFunctions, o.Trace.MaxTraceEntries)
}

// sameScans fails unless every target function's shared scan adds the
// same warnings, in the same order and with the same messages, as the
// reference that scans each trace from scratch, restarts every trace in
// the state the reference reaches at that point, and ends every trace in
// the same state.  It returns the number of warnings compared.
func sameScans(t *testing.T, name string, m *ir.Module, o checker.Options) int {
	t.Helper()
	ck := checker.New(m, o)
	n := 0
	for _, f := range ck.TargetFunctions() {
		got, gotEnds, restored := ck.ScanShared(f.Name)
		want, wantEnds, states := ck.ScanFromScratch(f.Name, restored)
		if !reflect.DeepEqual(got.Warnings, want.Warnings) {
			t.Errorf("%s %s: %s: shared scan differs from the reference\n got %v\nwant %v", name, configName(o), f.Name, got.Warnings, want.Warnings)
		}
		for p, st := range restored {
			if st != states[p] {
				t.Errorf("%s %s: %s: trace %d restarts after %d entries in another state than the reference's\n got %s\nwant %s", name, configName(o), f.Name, p.Trace, p.Offset, st, states[p])
				break
			}
		}
		if !slices.Equal(gotEnds, wantEnds) {
			for i := range min(len(gotEnds), len(wantEnds)) {
				if gotEnds[i] != wantEnds[i] {
					t.Errorf("%s %s: %s: trace %d ends in another state than the reference's\n got %s\nwant %s", name, configName(o), f.Name, i, gotEnds[i], wantEnds[i])
					break
				}
			}
			if len(gotEnds) != len(wantEnds) {
				t.Errorf("%s %s: %s: %d traces ended, want %d", name, configName(o), f.Name, len(gotEnds), len(wantEnds))
			}
		}
		n += len(want.Warnings)
	}
	return n
}

// forksPIR forks inside an open transaction (after an undo log entry
// and a flush), then inside an epoch and a strand, so its traces restart
// from states that hold every kind of rule bookkeeping.
const forksPIR = `module forks

type obj struct {
	a: int
	b: int
}

func main(c) {
	file "forks.c"
	%p = palloc obj
	%q = palloc obj
	%r = palloc obj
	txbegin                @10
	txadd %p.a             @11
	store %p.a, 1          @12
	store %q.a, 1          @13
	flush %q.a             @14
	condbr %c, t1, t2      @15
t1:
	store %q.b, 2          @20
	flush %q               @21
	txend                  @22
	br e                   @23
t2:
	store %r.a, 3          @30
	txend                  @31
	br e                   @32
e:
	epochbegin             @40
	strandbegin 1          @41
	store %p.b, 4          @42
	flush %p.b             @43
	condbr %c, s1, s2      @44
s1:
	strandend 1            @50
	strandbegin 2          @51
	store %p.b, 5          @52
	strandend 2            @53
	epochend               @54
	fence                  @55
	ret
s2:
	store %r.b, 6          @60
	epochend               @61
	epochbegin             @62
	store %q.a, 7          @63
	epochend               @64
	ret
}
`

// TestSharedScanMatchesReference is the differential oracle for
// trace.Walk's shared scan over the corpus and forksPIR under every
// option set.
func TestSharedScanMatchesReference(t *testing.T) {
	forks, err := ir.Parse(forksPIR)
	if err != nil {
		t.Fatal(err)
	}
	modules := map[string]*ir.Module{"forks": forks}
	for _, p := range corpus.All() {
		if modules[p.Name], err = p.Module(); err != nil {
			t.Fatal(err)
		}
	}
	for name, m := range modules {
		warnings := 0
		for _, o := range scanConfigs() {
			warnings += sameScans(t, name, m, o)
		}
		if warnings == 0 {
			t.Errorf("%s: the scans found nothing: the comparison is empty", name)
		}
	}
}

// TestSharedScanMatchesReferenceOnApps runs the same oracle over
// generated apps of 50 to 200 functions, whose root traces share long
// prefixes and splice deep callee chains.
func TestSharedScanMatchesReferenceOnApps(t *testing.T) {
	configs := scanConfigs()
	seeds := 20
	if testing.Short() {
		seeds = 4
	}
	for seed := 1; seed <= seeds; seed++ {
		funcs := 50 + (seed*37)%151
		m := core.GenerateApp(core.AppSpec{Name: fmt.Sprintf("app%d", seed), Funcs: funcs, CallDepth: 3, Seed: int64(seed)})
		// Two option sets per app keep the run short while every set is
		// used across the seeds.
		for _, o := range []checker.Options{configs[seed%len(configs)], configs[(seed*7+3)%len(configs)]} {
			sameScans(t, m.Name, m, o)
		}
	}
}

// FuzzSharedScan compares the shared scan with the reference on
// arbitrary PIR under an option set picked from the input.
func FuzzSharedScan(f *testing.F) {
	files, _ := filepath.Glob("../../testdata/*.pir")
	for _, file := range files {
		src, err := os.ReadFile(file)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(src), uint8(0))
	}
	for i, p := range corpus.All() {
		f.Add(p.Source, uint8(i*5))
	}
	f.Add(forksPIR, uint8(1))
	configs := scanConfigs()
	f.Fuzz(func(t *testing.T, src string, pick uint8) {
		m, err := ir.Parse(src)
		if err != nil || ir.Verify(m) != nil {
			return
		}
		sameScans(t, "fuzz", m, configs[int(pick)%len(configs)])
	})
}
