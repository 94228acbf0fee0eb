package dynamic_test

import (
	"crypto/sha256"
	"encoding/binary"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"deepmc/internal/corpus"
	"deepmc/internal/dynamic"
	"deepmc/internal/fuzzsched"
	"deepmc/internal/interp"
	"deepmc/internal/ir"
)

var update = flag.Bool("update", false, "rewrite the golden files")

// TestCoverageGolden pins the coverage bitmap the schedule fuzzer steers
// by: its edge count and a SHA-256 of its bits, for a run of every
// testdata program and, plain and under one delay-and-fault genome, of
// every inter-thread target.  The bit indices come from FNV-1a hashes of
// each event's site, so a change to how sites are hashed moves the fuzz
// search path and shows up here first.
// Regenerate with: go test ./internal/dynamic -run TestCoverageGolden -update
func TestCoverageGolden(t *testing.T) {
	var b strings.Builder
	global := dynamic.NewCoverage()
	record := func(name string, m *ir.Module, entry string, g *fuzzsched.Genome) {
		t.Helper()
		rt := dynamic.NewRuntime(false)
		rt.Cov = dynamic.NewCoverage()
		var hooks interp.Hooks = rt
		if g != nil {
			hooks = fuzzsched.NewInjector(g).Wrap(rt)
		}
		ip := interp.New(m, hooks)
		if _, err := ip.Run(entry); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		fmt.Fprintf(&b, "%s: edges=%d sha256=%s\n", name, rt.Cov.Count(), bitmapSum(rt.Cov))
		rt.Cov.MergeInto(global)
	}

	paths, err := filepath.Glob(filepath.Join("..", "..", "testdata", "*.pir"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no testdata programs: %v", err)
	}
	for _, p := range paths {
		src, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		m, err := ir.Parse(string(src))
		if err != nil {
			t.Fatal(err)
		}
		record(filepath.Base(p), m, "main", nil)
	}

	g := &fuzzsched.Genome{Classes: 0x0f}
	for d := uint32(1); d <= 32; d += 3 {
		g.Delays = append(g.Delays, d)
	}
	for i := 0; i < 64; i++ {
		g.Tape = append(g.Tape, byte(i*37))
	}
	cases, err := corpus.InterThreadCases()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cases {
		for _, v := range []struct {
			name string
			m    *ir.Module
		}{{"buggy", c.Buggy}, {"fixed", c.Fixed}} {
			record(c.Program+"-"+v.name, v.m, c.Entry, nil)
			record(c.Program+"-"+v.name+" "+g.String(), v.m, c.Entry, g)
		}
	}
	fmt.Fprintf(&b, "merged: edges=%d sha256=%s\n", global.Count(), bitmapSum(global))

	got := b.String()
	path := filepath.Join("testdata", "coverage.golden")
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
		t.Errorf("coverage differs from %s\n--- got:\n%s--- want:\n%s", path, got, want)
	}
}

func bitmapSum(c *dynamic.Coverage) string {
	h := sha256.New()
	var w [8]byte
	for _, word := range dynamic.CoverageBits(c) {
		binary.LittleEndian.PutUint64(w[:], word)
		h.Write(w[:])
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}
