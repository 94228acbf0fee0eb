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
		for _, v := range []struct {
			name string
			m    *ir.Module
		}{{"buggy", c.Buggy}, {"fixed", c.Fixed}} {
			_, body, _ := strings.Cut(ir.Print(v.m), "\n")
			fmt.Fprintf(&b, "== %s %s:%d %s %s\n%s", c.Program, c.File, c.Line, c.Rule, v.name, body)
		}
	}
	got := b.String()
	path := filepath.Join("testdata", "harnesses.golden")
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
		t.Errorf("harness modules differ from %s:\n%s", path, firstDiff(got, string(want)))
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
