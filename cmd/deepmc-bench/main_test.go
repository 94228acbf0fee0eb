package main

import (
	"os"
	"testing"

	"deepmc/internal/cli"
	"deepmc/internal/tables"
)

// TestRunExitStatus pins the runner's exit contract: a usage error is
// 2, any failing entry makes the run 1, and only an all-passing run is
// 0.  An entry's bench rows land in BENCH_<name>.json with dashes
// written as underscores.
func TestRunExitStatus(t *testing.T) {
	dir := t.TempDir()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.Chdir(wd) })

	entries := []tables.Entry{
		{Name: "pass", Paper: true, Doc: "passes", Run: func() tables.Result {
			return tables.Result{Text: "passed", Bench: []int{1, 2}, OK: true}
		}},
		{Name: "broken-gate", Doc: "fails", Run: func() tables.Result {
			return tables.Result{Text: "FAIL"}
		}},
	}
	for _, tc := range []struct {
		args []string
		want int
	}{
		{nil, cli.ExitFailed},
		{[]string{"nosuch"}, cli.ExitFailed},
		{[]string{"pass", "nosuch"}, cli.ExitFailed},
		{[]string{"-table", "1"}, cli.ExitFailed},
		{[]string{"pass", "broken-gate"}, cli.ExitViolations},
		{[]string{"broken-gate"}, cli.ExitViolations},
		{[]string{"pass"}, cli.ExitOK},
		{[]string{"-jobs", "0", "all"}, cli.ExitOK},
	} {
		if got := run(tc.args, entries); got != tc.want {
			t.Errorf("run(%q) = %d, want %d", tc.args, got, tc.want)
		}
	}
	b, err := os.ReadFile("BENCH_pass.json")
	if err != nil {
		t.Fatal(err)
	}
	if string(b) != "[\n  1,\n  2\n]\n" {
		t.Errorf("BENCH_pass.json = %q", b)
	}
	if _, err := os.Stat("BENCH_broken_gate.json"); !os.IsNotExist(err) {
		t.Errorf("an entry without bench rows wrote a file: %v", err)
	}
}

// TestEntryNames checks the real table: names are unique and
// documented, and "all" runs exactly the paper entries.
func TestEntryNames(t *testing.T) {
	seen := map[string]bool{}
	var paper []string
	for _, e := range tables.Entries {
		if e.Name == "" || e.Name == "all" || e.Doc == "" || e.Run == nil || seen[e.Name] {
			t.Errorf("bad entry %+v", e)
		}
		seen[e.Name] = true
		if e.Paper {
			paper = append(paper, e.Name)
		}
	}
	want := []string{"table1", "table2", "table3", "table6", "table7", "table8", "table9",
		"completeness", "fp", "perffix", "ablations", "speedup", "cache", "pmodel", "crashsim", "figure12"}
	if len(paper) != len(want) {
		t.Fatalf("paper entries %q, want %q", paper, want)
	}
	for i := range want {
		if paper[i] != want[i] {
			t.Fatalf("paper entries %q, want %q", paper, want)
		}
	}
	for _, gate := range []string{"cache-gate", "serve-gate", "fuzz-gate", "fleet-gate", "pmodel-gate", "soak", "soak-short"} {
		if !seen[gate] {
			t.Errorf("no entry for make target %s", gate)
		}
	}
}
