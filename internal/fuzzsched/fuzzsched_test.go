package fuzzsched

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"deepmc/internal/dynamic"
	"deepmc/internal/interp"
	"deepmc/internal/ir"
	"deepmc/internal/report"
)

func TestGenomeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 500; i++ {
		g := &Genome{Classes: uint8(rng.Intn(16))}
		for d := rng.Intn(8); d > 0; d-- {
			g.Delays = append(g.Delays, uint32(1+rng.Intn(100)))
		}
		tape := make([]byte, rng.Intn(200))
		rng.Read(tape)
		g.Tape = tape
		enc := g.Encode()
		got, err := Decode(enc)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if !bytes.Equal(got.Encode(), enc) {
			t.Fatalf("round-trip not canonical:\n%x\nvs\n%x", got.Encode(), enc)
		}
		if g.ID() != got.ID() {
			t.Fatalf("ID changed across round-trip")
		}
	}
}

func TestGenomeDecodeRejects(t *testing.T) {
	g := &Genome{Classes: 3, Delays: []uint32{4}, Tape: []byte{1, 2, 3}}
	enc := g.Encode()
	bad := [][]byte{
		nil,
		enc[:5],                       // truncated header
		append([]byte{9}, enc[1:]...), // wrong version
		enc[:len(enc)-1],              // truncated tape
		append(enc, 0),                // trailing garbage
	}
	for i, b := range bad {
		if _, err := Decode(b); err == nil {
			t.Errorf("case %d: Decode accepted malformed genome", i)
		}
	}
}

func TestMutateDeterminism(t *testing.T) {
	parent := &Genome{Classes: 5, Delays: []uint32{3, 9}, Tape: []byte{1, 2, 3, 4}}
	other := &Genome{Classes: 10, Tape: []byte{9, 8}}
	a := rand.New(rand.NewSource(42))
	b := rand.New(rand.NewSource(42))
	for i := 0; i < 200; i++ {
		ma, mb := Mutate(parent, other, a), Mutate(parent, other, b)
		if !bytes.Equal(ma.Encode(), mb.Encode()) {
			t.Fatalf("iteration %d: same-seed mutants differ:\n%s\nvs\n%s", i, ma, mb)
		}
	}
	if m := Mutate(parent, other, a); bytes.Equal(m.Encode(), parent.Encode()) && len(parent.Tape) > 0 {
		// Mutants may occasionally equal the parent (e.g. truncate at full
		// length); just ensure the parent was not modified in place.
	}
	if got := parent.Encode(); !bytes.Equal(got, (&Genome{Classes: 5, Delays: []uint32{3, 9}, Tape: []byte{1, 2, 3, 4}}).Encode()) {
		t.Fatal("Mutate modified the parent in place")
	}
}

// The delay lever: deferring a flush's delivery past a cross-strand
// read turns an ordinary RAW (DMC-D02) into an unflushed RAW (DMC-D03)
// — the interleaving window PMRace-style delay injection opens.
func TestDelayInjectorOpensUnflushedWindow(t *testing.T) {
	const prog = `
module d
type t struct {
	x: int
}
func main() {
	file "d.c"
	strandbegin 1   @1
	store %p.x, 1   @2
	flush %p.x      @3
	strandend 1     @4
	strandbegin 2   @5
	%v = load %p.x  @6
	strandend 2     @7
	fence           @8
	ret
}
`
	src := strings.Replace(prog, "strandbegin 1   @1", "%p = palloc t\n\tstrandbegin 1   @1", 1)
	m, err := ir.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	run := func(g *Genome) []string {
		rt := dynamic.NewRuntime(false)
		ip := interp.New(m, NewInjector(g).Wrap(rt))
		if _, err := ip.Run("main"); err != nil {
			t.Fatal(err)
		}
		var codes []string
		for _, w := range rt.Checker.Report().Warnings {
			codes = append(codes, w.EffectiveCode())
		}
		return codes
	}
	// Choice points: strandbegin=1, flush=2, strandend=3, strandbegin=4,
	// strandend=5, fence=6.
	plain := run(&Genome{})
	if fmt.Sprint(plain) != fmt.Sprint([]string{report.CodeDynRAW}) {
		t.Fatalf("undelayed run codes = %v, want [%s]", plain, report.CodeDynRAW)
	}
	delayed := run(&Genome{Delays: []uint32{2}})
	if fmt.Sprint(delayed) != fmt.Sprint([]string{report.CodeDynUnflushedRAW}) {
		t.Fatalf("delayed run codes = %v, want [%s]", delayed, report.CodeDynUnflushedRAW)
	}
}

// Determinism: the same (seed, budget, target) triple must reproduce
// the same corpus, findings, and byte-identical witness encodings.
func TestFuzzDeterminism(t *testing.T) {
	tgt, err := LookupTarget("ITLOG-buggy")
	if err != nil {
		t.Fatal(err)
	}
	run := func() (*Result, []byte) {
		res, err := Fuzz(context.Background(), tgt, Options{Seed: 7, Budget: 150})
		if err != nil {
			t.Fatal(err)
		}
		var wits bytes.Buffer
		for _, f := range res.Findings {
			wits.Write(f.Witness.Encode())
		}
		return res, wits.Bytes()
	}
	r1, w1 := run()
	r2, w2 := run()
	if r1.String() != r2.String() {
		t.Fatalf("same-seed runs differ:\n%s\nvs\n%s", r1, r2)
	}
	if !bytes.Equal(w1, w2) {
		t.Fatalf("same-seed witnesses differ:\n%s\nvs\n%s", w1, w2)
	}
	if len(r1.Findings) == 0 {
		t.Fatal("ITLOG-buggy yielded no findings")
	}
	// A different seed still re-finds the planted bug (the bug is not
	// seed-dependent), though corpus/witness bytes may differ.
	res3, err := Fuzz(context.Background(), tgt, Options{Seed: 8, Budget: 150})
	if err != nil {
		t.Fatal(err)
	}
	if len(res3.Findings) == 0 {
		t.Fatal("seed 8 lost the planted bug")
	}
}

func TestWitnessRoundTrip(t *testing.T) {
	ws, err := CorpusWitnesses()
	if err != nil {
		t.Fatal(err)
	}
	if len(ws) == 0 {
		t.Fatal("embedded corpus is empty")
	}
	for _, w := range ws {
		enc := w.Encode()
		got, err := DecodeWitness(enc)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Encode(), enc) {
			t.Fatalf("witness round-trip diverged:\n%s\nvs\n%s", got.Encode(), enc)
		}
	}
}

func TestCorpusDirRoundTrip(t *testing.T) {
	dir := t.TempDir()
	g1 := &Genome{Classes: 3, Delays: []uint32{2, 7}, Tape: []byte{1, 2, 3}}
	g2 := &Genome{Classes: 8, Tape: []byte{200}}
	for _, g := range []*Genome{g1, g2, g1} { // duplicate save is idempotent
		if err := SaveGenome(dir, g); err != nil {
			t.Fatal(err)
		}
	}
	got, err := LoadCorpus(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("loaded %d genomes, want 2", len(got))
	}
	ids := map[string]bool{g1.ID(): true, g2.ID(): true}
	for _, g := range got {
		if !ids[g.ID()] {
			t.Fatalf("loaded unexpected genome %s", g)
		}
	}
	if _, err := LoadCorpus(dir + "/missing"); err != nil {
		t.Fatalf("missing corpus dir must be empty, not error: %v", err)
	}
}

// TestFuzzGate is the `make fuzz-gate` entry: embedded witnesses replay
// byte-identically and a default-budget run re-finds every planted bug
// while fixed targets stay clean.
func TestFuzzGate(t *testing.T) {
	out, ok := Gate(context.Background())
	if !ok {
		t.Fatalf("fuzz gate failed:\n%s", out)
	}
	t.Logf("\n%s", out)
}

// TestRegenerateWitnessCorpus rewrites the embedded witness corpus from
// a fresh seed-1 fuzz run.  Guarded: run with DEEPMC_REGEN_WITNESSES=1
// after an intentional behavior change, then commit the new files.
func TestRegenerateWitnessCorpus(t *testing.T) {
	if os.Getenv("DEEPMC_REGEN_WITNESSES") == "" {
		t.Skip("set DEEPMC_REGEN_WITNESSES=1 to regenerate")
	}
	ts, err := Targets()
	if err != nil {
		t.Fatal(err)
	}
	for _, tgt := range ts {
		if tgt.WantClean {
			continue
		}
		res, err := Fuzz(context.Background(), tgt, Options{Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range res.Findings {
			name := strings.ToLower(fmt.Sprintf("%s-%s.witness", f.Target, f.Code))
			if err := os.WriteFile("witnesscorpus/"+name, f.Witness.Encode(), 0o644); err != nil {
				t.Fatal(err)
			}
			t.Logf("wrote %s", name)
		}
	}
}

// FuzzDecodeWitness feeds arbitrary bytes to the witness decoder, which
// reads files from disk: no input may panic it, and an accepted
// witness's encoding must be a fixed point — it decodes, and re-encodes
// to the same bytes.  The checked-in witnesses seed the corpus.
func FuzzDecodeWitness(f *testing.F) {
	paths, err := filepath.Glob("witnesscorpus/*.witness")
	if err != nil || len(paths) == 0 {
		f.Fatalf("no checked-in witnesses (%v)", err)
	}
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Add([]byte("deepmc-witness v1\ngenome: " + (&Genome{}).Hex() + "\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		w, err := DecodeWitness(data)
		if err != nil {
			return
		}
		enc := w.Encode()
		w2, err := DecodeWitness(enc)
		if err != nil {
			t.Fatalf("re-decode of an accepted witness's encoding failed: %v\n%q", err, enc)
		}
		if enc2 := w2.Encode(); !bytes.Equal(enc2, enc) {
			t.Fatalf("witness encoding not a fixed point:\n%q\n%q", enc, enc2)
		}
	})
}

// FuzzGenome is the native fuzz harness over the genome codec: Decode
// must never panic, and any accepted input must re-encode canonically
// and survive mutation.
func FuzzGenome(f *testing.F) {
	f.Add([]byte{})
	f.Add((&Genome{}).Encode())
	f.Add((&Genome{Classes: 0x0f, Delays: []uint32{1, 5}, Tape: []byte{0, 127, 255}}).Encode())
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := Decode(data)
		if err != nil {
			return
		}
		enc := g.Encode()
		g2, err := Decode(enc)
		if err != nil {
			t.Fatalf("re-decode of canonical encoding failed: %v", err)
		}
		if !bytes.Equal(g2.Encode(), enc) {
			t.Fatalf("canonical encoding not a fixed point")
		}
		rng := rand.New(rand.NewSource(1))
		for i := 0; i < 8; i++ {
			m := Mutate(g, g2, rng)
			if _, err := Decode(m.Encode()); err != nil {
				t.Fatalf("mutant does not decode: %v (%s)", err, m)
			}
		}
	})
}
