package fuzzsched

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"deepmc/internal/corpus"
	"deepmc/internal/crashsim"
	"deepmc/internal/faultinj"
	"deepmc/internal/ir"
)

var update = flag.Bool("update", false, "rewrite the golden files")

// TestFaultLogGolden pins the code locations the fault and delay logs
// render ("fn file:line").  It holds the crashsim fault log of every
// corpus crash case under each fault class (seed 42, rate 1), for the
// buggy and the fixed harness, and the injector log of one genome with
// delays, faults armed, on every inter-thread target.
// Regenerate with: go test ./internal/fuzzsched -run TestFaultLogGolden -update
func TestFaultLogGolden(t *testing.T) {
	ctx := context.Background()
	var b strings.Builder
	cases, err := corpus.CrashCases()
	if err != nil {
		t.Fatal(err)
	}
	for _, cl := range faultinj.AllClasses() {
		o := crashsim.Options{
			Workers: 1,
			Prune:   true,
			Faults:  &faultinj.Config{Classes: []faultinj.Class{cl}, Rate: 1, Seed: 42},
		}
		for i := range cases {
			c := &cases[i]
			progs := []struct {
				variant string
				m       *ir.Module
			}{{"buggy", c.Buggy}, {"fixed", c.Fixed}}
			for _, p := range progs {
				if p.m == nil {
					continue
				}
				res, err := crashsim.EnumerateCtx(ctx, p.m, c.Entry, c.Invariant, o)
				if err != nil {
					t.Fatalf("%s %s:%d %s %s: %v", c.Program, c.File, c.Line, cl, p.variant, err)
				}
				fmt.Fprintf(&b, "== crashsim %s %s:%d %s %s: %d injections\n%s",
					c.Program, c.File, c.Line, cl, p.variant, res.Injections, res.FaultLog)
			}
		}
	}

	targets, err := Targets()
	if err != nil {
		t.Fatal(err)
	}
	g := &Genome{Classes: 0x0f}
	for d := uint32(1); d <= 32; d++ {
		g.Delays = append(g.Delays, d)
	}
	for i := 0; i < 64; i++ {
		g.Tape = append(g.Tape, byte(i*37))
	}
	for _, tg := range targets {
		inj := NewInjector(g)
		if _, err := crashsim.EnumerateCtx(ctx, tg.Module, tg.Entry, tg.Invariant,
			crashsim.Options{Injector: inj, Workers: 1}); err != nil {
			t.Fatalf("%s: %v", tg.Name, err)
		}
		fmt.Fprintf(&b, "== injector %s %s: %d injections\n%s", tg.Name, g, inj.Injections(), inj.Log())
	}

	got := b.String()
	path := filepath.Join("testdata", "faultlogs.golden")
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if got != string(want) {
		t.Errorf("fault logs differ from %s\n--- got:\n%s", path, got)
	}
}
