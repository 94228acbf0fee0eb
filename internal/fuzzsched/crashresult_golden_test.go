package fuzzsched

import (
	"context"
	"fmt"
	"hash"
	"hash/fnv"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"deepmc/internal/corpus"
	"deepmc/internal/crashsim"
	"deepmc/internal/faultinj"
	"deepmc/internal/ir"
	"deepmc/internal/pmcontract"
)

// goldenContracts are the persistency contracts the crash-result golden
// enumerates under: x86, a CXL persistence domain covering the heap, and
// a CXL contract with an empty domain (which must behave like x86).
var goldenContracts = []struct {
	name string
	c    pmcontract.Contract
}{
	{"x86", pmcontract.X86Contract()},
	{"cxl", pmcontract.CXLContract(pmcontract.WholeDomain())},
	{"cxl-empty", pmcontract.CXLContract(pmcontract.Domain{})},
}

// wideProgram stores twelve words of one persistent object before any
// flush, so its later crash points hold more in-flight words than crash
// enumeration checks exhaustively: those points fall back to sampled
// persist outcomes.  It then overwrites the object in an open
// transaction that logged one word, and ends without a flush, so torn
// writes change its final image.
const wideProgram = `
module wide

type wide struct {
	f0: int
	f1: int
	f2: int
	f3: int
	f4: int
	f5: int
	f6: int
	f7: int
	f8: int
	f9: int
	f10: int
	f11: int
}

func main() {
	file "wide.c"
	%w = palloc wide    @1
	store %w.f0, 1      @2
	store %w.f1, 2      @3
	store %w.f2, 3      @4
	store %w.f3, 4      @5
	store %w.f4, 5      @6
	store %w.f5, 6      @7
	store %w.f6, 7      @8
	store %w.f7, 8      @9
	store %w.f8, 9      @10
	store %w.f9, 10     @11
	store %w.f10, 11    @12
	store %w.f11, 12    @13
	flush %w            @14
	fence               @15
	txbegin             @16
	txadd %w.f1         @17
	memset %w, 9, 96    @18
	ret                 @19
}
`

// wideInvariant returns an invariant over wideProgram's object that
// fails when words 0 and 2 are durable but words 1 and 3 are not, naming
// every durable word, and that folds each image it sees into h.  The
// error and the hash together pin the order of the persist outcomes
// crash enumeration tries, sampled ones included.
func wideInvariant(h *imageHash) crashsim.Invariant {
	return func(im *crashsim.Image) error {
		var durable []string
		var bits [12]bool
		for i := range bits {
			v := im.Load(1, 8*i)
			bits[i] = v != 0
			if bits[i] {
				durable = append(durable, fmt.Sprintf("f%d", i))
			}
			fmt.Fprintf(h.h, "%d,", v)
		}
		h.h.Write([]byte{';'})
		h.n++
		if bits[0] && !bits[1] && bits[2] && !bits[3] {
			return fmt.Errorf("f0 and f2 durable without f1 and f3: durable %v", durable)
		}
		return nil
	}
}

// imageHash counts and hashes the images an invariant is handed.
type imageHash struct {
	h hash.Hash64
	n int
}

func newImageHash() *imageHash { return &imageHash{h: fnv.New64a()} }

// writeResult renders one enumeration: its counters, Detail and fault log.
func writeResult(b *strings.Builder, title string, res *crashsim.Result) {
	fmt.Fprintf(b, "== %s\nsteps=%d crashes=%d pruned=%d deduped=%d skipped=%d injections=%d\n%s\n%s",
		title, res.TotalSteps, res.CrashesRun, res.Pruned, res.Deduped, res.Skipped, res.Injections,
		res.Detail(), res.FaultLog)
}

// TestCrashResultGolden pins what crash enumeration reports.  It
// enumerates every corpus crash and inter-thread harness, buggy and
// fixed, under x86, whole-domain cxl and empty-domain cxl; with no
// faults, each fault class at rate 1 seed 42 and at rate 0.5 seed 7, and
// all classes at seed 3; pruned, plus unpruned stride 1 for no faults
// and for the torn class.  It adds step-budgeted runs, one windowed and
// strided run, a harness whose crash points sample persist outcomes, and
// the final-image diff of every fuzz target under one genome.
// Regenerate with: go test ./internal/fuzzsched -run TestCrashResultGolden -update
func TestCrashResultGolden(t *testing.T) {
	ctx := context.Background()
	var b strings.Builder
	crash, err := corpus.CrashCases()
	if err != nil {
		t.Fatal(err)
	}
	inter, err := corpus.InterThreadCases()
	if err != nil {
		t.Fatal(err)
	}
	cases := append(crash, inter...)

	type faultCfg struct {
		name string
		cfg  *faultinj.Config
	}
	faults := []faultCfg{{"none", nil}}
	for _, cl := range faultinj.AllClasses() {
		faults = append(faults,
			faultCfg{fmt.Sprintf("%s/1/42", cl), &faultinj.Config{Classes: []faultinj.Class{cl}, Rate: 1, Seed: 42}},
			faultCfg{fmt.Sprintf("%s/0.5/7", cl), &faultinj.Config{Classes: []faultinj.Class{cl}, Rate: 0.5, Seed: 7}})
	}
	faults = append(faults, faultCfg{"all/1/3", &faultinj.Config{Classes: faultinj.AllClasses(), Rate: 1, Seed: 3}})

	enumerate := func(title string, m *ir.Module, entry string, inv crashsim.Invariant, o crashsim.Options) {
		t.Helper()
		res, err := crashsim.EnumerateCtx(ctx, m, entry, inv, o)
		if err != nil {
			t.Fatalf("%s: %v", title, err)
		}
		writeResult(&b, title, res)
	}

	for i := range cases {
		c := &cases[i]
		for _, v := range []struct {
			name string
			m    *ir.Module
		}{{"buggy", c.Buggy}, {"fixed", c.Fixed}} {
			for _, pc := range goldenContracts {
				for fi, f := range faults {
					title := fmt.Sprintf("%s %s:%d %s %s %s", c.Program, c.File, c.Line, v.name, pc.name, f.name)
					o := crashsim.Options{Workers: 1, Prune: true, Faults: f.cfg, Contract: pc.c}
					enumerate(title+" pruned", v.m, c.Entry, c.Invariant, o)
					if fi <= 1 {
						o.Prune = false
						o.Stride = 1
						enumerate(title+" unpruned", v.m, c.Entry, c.Invariant, o)
					}
				}
			}
			// A step budget cuts the program short: both modes enumerate
			// the truncated prefix.
			for _, prune := range []bool{true, false} {
				title := fmt.Sprintf("%s %s:%d %s x86 none maxsteps=12 prune=%v", c.Program, c.File, c.Line, v.name, prune)
				enumerate(title, v.m, c.Entry, c.Invariant, crashsim.Options{Workers: 1, Prune: prune, MaxSteps: 12})
			}
		}
	}

	c := &cases[0]
	enumerate(fmt.Sprintf("%s %s:%d buggy x86 torn/1/42 window=3..40 stride=2", c.Program, c.File, c.Line),
		c.Buggy, c.Entry, c.Invariant, crashsim.Options{
			Workers: 1, Prune: true, Stride: 2, MinStep: 3, MaxStep: 40,
			Faults: &faultinj.Config{Classes: []faultinj.Class{faultinj.TornWrite}, Rate: 1, Seed: 42},
		})

	wide := ir.MustParse(wideProgram)
	for _, pc := range goldenContracts {
		for _, prune := range []bool{true, false} {
			h := newImageHash()
			title := fmt.Sprintf("wide %s prune=%v", pc.name, prune)
			enumerate(title, wide, "main", wideInvariant(h), crashsim.Options{Workers: 1, Prune: prune, Contract: pc.c})
			fmt.Fprintf(&b, "images seen: %d, fnv64a %016x\n", h.n, h.h.Sum64())
		}
	}

	// The final-image oracle of invariant-less fuzz targets, run over
	// every built-in target, every PIR file in testdata and the wide
	// harness (whose torn memset leaves a diff behind).
	targets, err := Targets()
	if err != nil {
		t.Fatal(err)
	}
	pirs, err := filepath.Glob(filepath.Join("..", "..", "testdata", "*.pir"))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pirs {
		tg, err := LookupTarget(p)
		if err != nil {
			t.Fatal(err)
		}
		tg.Name = filepath.Base(p)
		targets = append(targets, tg)
	}
	targets = append(targets, Target{Name: "wide", Module: wide, Entry: "main"})
	g := &Genome{Classes: 0x0f}
	for d := uint32(1); d <= 32; d++ {
		g.Delays = append(g.Delays, d)
	}
	for i := 0; i < 64; i++ {
		g.Tape = append(g.Tape, byte(i*37))
	}
	for _, tg := range targets {
		for _, pc := range goldenContracts {
			for _, maxSteps := range []int{0, 12} {
				o := crashsim.Options{MaxSteps: maxSteps, Contract: pc.c}
				base, err := crashsim.FinalImage(ctx, tg.Module, tg.Entry, o)
				if err != nil {
					t.Fatalf("%s %s: %v", tg.Name, pc.name, err)
				}
				inj := NewInjector(g)
				o.Injector = inj
				img, err := crashsim.FinalImage(ctx, tg.Module, tg.Entry, o)
				if err != nil {
					t.Fatalf("%s %s: %v", tg.Name, pc.name, err)
				}
				fmt.Fprintf(&b, "== final image %s %s maxsteps=%d %s: %d injections\n%s%s",
					tg.Name, pc.name, maxSteps, g, inj.Injections(), inj.Log(), base.Diff(img))
			}
		}
	}

	got := b.String()
	path := filepath.Join("testdata", "crashresults.golden")
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
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("crash results differ from %s at line %d:\n got: %s\nwant: %s", path, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("crash results differ from %s: %d lines, want %d", path, len(gl), len(wl))
	}
}
