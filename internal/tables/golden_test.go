package tables

import (
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden files")

// goldenCases maps golden file names to their render functions.  Only
// the fully deterministic renders are pinned here; Table 7 depends on
// the host and Table 9 and Figure 12 on timing, so they are excluded.
var goldenCases = []struct {
	Name   string
	Render func() string
}{
	{"table1", Table1},
	{"table2", Table2},
	{"table3", Table3},
	{"table6", Table6},
	{"table8", Table8},
	{"completeness", Completeness},
	{"fp", FalsePositives},
	{"perffix", PerfFix},
	{"ablations", Ablations},
}

// TestGoldenTables pins the rendered byte content of Tables 1, 2, 3, 6
// and 8, the §5.3 completeness, §5.4 false-positive and §5.1 fix
// experiments and the ablations against checked-in golden files, at
// both the serial checker and a parallel fan-out — so a formatting
// change, a corpus drift, or a crack in the deterministic-merge
// guarantee all show up as a diff.
// Regenerate with: go test ./internal/tables -run TestGoldenTables -update
func TestGoldenTables(t *testing.T) {
	defer func(w int) { Workers = w }(Workers)
	for _, tc := range goldenCases {
		path := filepath.Join("testdata", tc.Name+".golden")
		Workers = 1
		got := tc.Render()
		if *update {
			if err := os.MkdirAll("testdata", 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%s: %v (run with -update to create)", tc.Name, err)
		}
		if got != string(want) {
			t.Errorf("%s: serial render differs from golden file\n--- got:\n%s--- want:\n%s", tc.Name, got, want)
		}
		for _, w := range []int{0, 4} {
			Workers = w
			if par := tc.Render(); par != string(want) {
				t.Errorf("%s: Workers=%d render differs from golden file (deterministic merge broken)\n--- got:\n%s", tc.Name, w, par)
			}
		}
	}
}
