package trace_test

import (
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"deepmc/internal/core"
	"deepmc/internal/corpus"
	"deepmc/internal/dsa"
	"deepmc/internal/ir"
	"deepmc/internal/trace"
)

var update = flag.Bool("update", false, "rewrite the golden files")

const traceGolden = "testdata/traces.golden"

type namedModule struct {
	name string
	m    *ir.Module
}

// goldenModules lists the modules whose whole trace sets are pinned: the
// four corpus frameworks, the sample PIR programs, and two generated
// apps large enough to hit every cap and the entry budget.
func goldenModules(t *testing.T) []namedModule {
	t.Helper()
	var out []namedModule
	for _, p := range corpus.All() {
		m, err := p.Module()
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, namedModule{p.Name, m})
	}
	files, err := filepath.Glob("../../testdata/*.pir")
	if err != nil || len(files) == 0 {
		t.Fatalf("no sample programs (%v)", err)
	}
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		m, err := ir.Parse(string(src))
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		out = append(out, namedModule{strings.TrimSuffix(filepath.Base(f), ".pir"), m})
	}
	for _, s := range []core.AppSpec{
		{Name: "app50", Funcs: 50, CallDepth: 3, Seed: 1},
		{Name: "app194", Funcs: 194, CallDepth: 3, Seed: 21},
	} {
		out = append(out, namedModule{s.Name, core.GenerateApp(s)})
	}
	return out
}

// goldenOptions are the pinned option sets: the defaults, caps tight
// enough that every one of them (and the entry budget) binds on the
// generated apps, and the unprioritized successor order.
func goldenOptions() []struct {
	name string
	opts trace.Options
} {
	tight := trace.Options{LoopIterations: 2, MaxPaths: 3, MaxCalleeVariants: 2, MaxTraceEntries: 30}
	unprioritized := trace.DefaultOptions()
	unprioritized.PrioritizePersistent = false
	return []struct {
		name string
		opts trace.Options
	}{
		{"default", trace.DefaultOptions()},
		{"tight", tight},
		{"unprioritized", unprioritized},
	}
}

// traceSetDigest hashes every function's trace set in FuncNames order:
// the name, the truncation flag, and each trace's rendering in order.
func traceSetDigest(m *ir.Module, opts trace.Options) string {
	c := trace.NewCollector(dsa.Analyze(m, dsa.DefaultOptions()), opts)
	h := sha256.New()
	for _, fn := range m.FuncNames() {
		ts := c.FunctionTraces(fn)
		fmt.Fprintf(h, "func %s truncated=%v traces=%d\n", fn, c.Truncated(fn), len(ts))
		for _, tr := range ts {
			io.WriteString(h, tr.String())
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestGoldenTraceSets pins whole trace sets, not just the reports built
// from them: reports deduplicate by (rule, file, line), so a reordered,
// missing or extra trace can leave them unchanged.  Any change to path
// enumeration order, a cap, or the truncation rules shows up here.
// Regenerate with: go test ./internal/trace -run TestGoldenTraceSets -update
func TestGoldenTraceSets(t *testing.T) {
	var b strings.Builder
	for _, gm := range goldenModules(t) {
		for _, o := range goldenOptions() {
			fmt.Fprintf(&b, "%s %s %s\n", gm.name, o.name, traceSetDigest(gm.m, o.opts))
		}
	}
	got := b.String()
	if *update {
		if err := os.WriteFile(traceGolden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(traceGolden)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if got != string(want) {
		t.Errorf("trace set digests differ from %s\n--- got:\n%s--- want:\n%s", traceGolden, got, want)
	}
}
