package corpus

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"deepmc/internal/ir"
)

var update = flag.Bool("update", false, "rewrite the golden files")

// TestHarnessGolden pins the program every crash and inter-thread
// harness runs: ir.Print of each buggy and fixed module, in case order.
// Each module line is dropped, because module names appear in no output
// (sites render as function, file and line).
// Regenerate with: go test ./internal/corpus -run TestHarnessGolden -update
func TestHarnessGolden(t *testing.T) {
	crash, err := CrashCases()
	if err != nil {
		t.Fatal(err)
	}
	inter, err := InterThreadCases()
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for _, c := range append(crash, inter...) {
		writePair(&b, fmt.Sprintf("%s %s:%d %s", c.Program, c.File, c.Line, c.Rule), c.Buggy, c.Fixed)
	}
	checkGolden(t, "harnesses.golden", b.String())
}

// TestPerfCaseGolden pins the program every §5.1 row runs, buggy and
// fixed, in row order, the way TestHarnessGolden pins the crash
// harnesses.
// Regenerate with: go test ./internal/corpus -run TestPerfCaseGolden -update
func TestPerfCaseGolden(t *testing.T) {
	cases, err := PerfCases()
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for _, c := range cases {
		writePair(&b, fmt.Sprintf("%s %s %s", c.Program, c.Site(), c.Rule), c.Buggy, c.Fixed)
	}
	checkGolden(t, "perfcases.golden", b.String())
}

// writePair writes ir.Print of a buggy and a fixed module, each under a
// "== head variant" line and without its module line.
func writePair(b *strings.Builder, head string, buggy, fixed *ir.Module) {
	for _, v := range []struct {
		name string
		m    *ir.Module
	}{{"buggy", buggy}, {"fixed", fixed}} {
		_, body, _ := strings.Cut(ir.Print(v.m), "\n")
		fmt.Fprintf(b, "== %s %s\n%s", head, v.name, body)
	}
}

// checkGolden compares got with testdata/name, rewriting it under
// -update.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
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
		t.Fatalf("%v (run with -update to create)", err)
	}
	if got != string(want) {
		t.Errorf("modules differ from %s:\n%s", path, firstDiff(got, string(want)))
	}
}

// firstDiff renders the first line at which got and want differ.
func firstDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(g) || i < len(w); i++ {
		var gl, wl string
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if gl != wl {
			return fmt.Sprintf("line %d: got %q, want %q", i+1, gl, wl)
		}
	}
	return ""
}
