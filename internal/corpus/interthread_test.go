package corpus

import (
	"context"
	"strings"
	"testing"

	"deepmc/internal/crashsim"
	"deepmc/internal/dynamic"
	"deepmc/internal/interp"
	"deepmc/internal/report"
)

func TestInterThreadCasesBuild(t *testing.T) {
	cases, err := InterThreadCases()
	if err != nil {
		t.Fatal(err)
	}
	if len(cases) != 2 {
		t.Fatalf("got %d inter-thread cases, want 2", len(cases))
	}
}

// The Flagged oracle must be the dynamic checker, and the two planted
// bugs must exercise both RAW codes: the never-flushed handoff is
// DMC-D03, the flushed-but-unfenced one plain DMC-D02.
func TestInterThreadDynamicCodes(t *testing.T) {
	cases, err := InterThreadCases()
	if err != nil {
		t.Fatal(err)
	}
	wantCode := map[string]string{
		"ITQUEUE": report.CodeDynUnflushedRAW,
		"ITLOG":   report.CodeDynRAW,
	}
	for i := range cases {
		c := &cases[i]
		rt := dynamic.NewRuntime(true)
		if _, err := interp.New(c.Buggy, rt).Run(c.Entry); err != nil {
			t.Fatalf("%s buggy: %v", c.Program, err)
		}
		var codes []string
		for _, w := range rt.Checker.Report().Warnings {
			codes = append(codes, w.EffectiveCode())
		}
		want := wantCode[c.Program]
		found := false
		for _, code := range codes {
			if code == want {
				found = true
			}
		}
		if !found {
			t.Errorf("%s buggy: dynamic codes %v, want %s", c.Program, codes, want)
		}

		frt := dynamic.NewRuntime(true)
		if _, err := interp.New(c.Fixed, frt).Run(c.Entry); err != nil {
			t.Fatalf("%s fixed: %v", c.Program, err)
		}
		if ws := frt.Checker.Report().Warnings; len(ws) != 0 {
			t.Errorf("%s fixed: dynamic checker still warns: %v", c.Program, ws)
		}
	}
}

// Three-way gate: dynamic checker flags each planted bug, crash
// enumeration reproduces it, and the reordered fixed variant is clean —
// mirroring CrossValidateCtx's static-checker gate for the single-strand
// corpus.
func TestCrossValidateInterThread(t *testing.T) {
	rep, err := CrossValidateInterThreadCtx(context.Background(), crashsim.Options{Prune: true, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Agree() {
		t.Fatalf("inter-thread differential gate disagrees:\n%s", rep.String())
	}
	if !strings.Contains(rep.String(), "ITQUEUE") || !strings.Contains(rep.String(), "ITLOG") {
		t.Fatalf("report missing planted programs:\n%s", rep.String())
	}
}
