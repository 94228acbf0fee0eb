package core

import (
	"encoding/hex"
	"fmt"
	"os"
	"strings"
	"testing"

	"deepmc/internal/anacache"
	"deepmc/internal/corpus"
	"deepmc/internal/ir"
	"deepmc/internal/report"
)

// keysGolden belongs to anacache (the keys are its format); it is
// checked here because the configuration facts the keys hash are core's.
const keysGolden = "../anacache/testdata/keys.golden"

// TestCacheKeysGolden pins every trace and verdict key of the four
// corpus programs and of a 50- and a 335-function generated app, under
// the default configuration and under cxl with a pass selection.  A key
// that changes orphans every disk and remote cache entry stored under
// it, so any change to the hashed bytes (the printed IR, the type
// layouts, the configuration facts, the pass-registry version) shows
// here first.  Regenerate with:
//
//	go test ./internal/core -run TestCacheKeysGolden -update
func TestCacheKeysGolden(t *testing.T) {
	type subject struct {
		name, model string
		m           *ir.Module
	}
	var subjects []subject
	for _, p := range corpus.All() {
		subjects = append(subjects, subject{p.Name, p.Model.String(), mustModule(t, p)})
	}
	for _, s := range []AppSpec{
		{Name: "app50", Funcs: 50, CallDepth: 3, Seed: 1},
		{Name: "app335", Funcs: 335, CallDepth: 3, Seed: 44},
	} {
		subjects = append(subjects, subject{s.Name, "strict", GenerateApp(s)})
	}
	var b strings.Builder
	b.WriteString("# module config function trace-key verdict-key\n")
	for _, s := range subjects {
		for _, c := range []struct {
			name string
			cfg  Config
		}{
			{"default", Config{Model: s.model}},
			{"cxl-passes", Config{Model: s.model, PModel: "cxl",
				Passes: []string{report.CodeUnflushedWrite, report.CodeRedundantFlush, report.CodeFlushInDomain}}},
		} {
			opts, err := c.cfg.checkerOptions()
			if err != nil {
				t.Fatal(err)
			}
			enabled, err := c.cfg.enabledPasses()
			if err != nil {
				t.Fatal(err)
			}
			traceFacts, verdictFacts := fingerprintFacts(opts, enabled)
			fp := anacache.Fingerprint(s.m, traceFacts, verdictFacts)
			for _, fn := range s.m.FuncNames() {
				tk, vk := fp.Trace[fn], fp.Verdict[fn]
				fmt.Fprintf(&b, "%s %s %s %s %s\n", s.name, c.name, fn, hex.EncodeToString(tk[:]), hex.EncodeToString(vk[:]))
			}
		}
	}
	got := b.String()
	if *update {
		if err := os.WriteFile(keysGolden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(keysGolden)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("%s line %d differs:\n got %s\nwant %s", keysGolden, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("%s has %d lines, got %d", keysGolden, len(wl), len(gl))
	}
}

// TestFingerprintAllocationBound holds fingerprinting the four corpus
// modules to half the allocations the fmt-printed, one-hasher-per-key
// Fingerprint made (5,319 for the four, go1.24 on linux/amd64).
func TestFingerprintAllocationBound(t *testing.T) {
	const before = 5319
	var mods []*ir.Module
	for _, p := range corpus.All() {
		mods = append(mods, mustModule(t, p))
	}
	allocs := testing.AllocsPerRun(5, func() {
		for _, m := range mods {
			anacache.Fingerprint(m, []string{"allfuncs=false"}, []string{"model=strict"})
		}
	})
	if allocs > before/2 {
		t.Errorf("fingerprinting the corpus made %.0f allocations, want at most %d (half of %d)", allocs, before/2, before)
	}
}
