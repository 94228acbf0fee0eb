package corpus

import (
	"testing"

	"deepmc/internal/ir"
)

// TestPerfCasesBuild: the seven §5.1 rows build, and the function
// holding each of a row's bug lines prints exactly as the corpus
// program's own, so a row prices the code the checker flags.
func TestPerfCasesBuild(t *testing.T) {
	cases, err := PerfCases()
	if err != nil {
		t.Fatal(err)
	}
	if len(cases) != 7 {
		t.Fatalf("built %d perf cases, want 7", len(cases))
	}
	mods, err := corpusModules()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cases {
		if ir.Print(c.Buggy) == ir.Print(c.Fixed) {
			t.Errorf("%s %s: the fixed program is the buggy one", c.Program, c.Site())
		}
		for _, line := range c.Lines {
			f := funcAt(c.Buggy, c.File, line)
			if f == nil {
				t.Errorf("%s %s:%d: no buggy harness instruction sits at the bug's line", c.Program, c.File, line)
				continue
			}
			orig := mods[c.Program].Func(f.Name)
			if orig == nil || ir.PrintFunc(orig) != ir.PrintFunc(f) {
				t.Errorf("%s %s:%d: harness function %s is not the corpus program's own", c.Program, c.File, line, f.Name)
			}
		}
	}
}
