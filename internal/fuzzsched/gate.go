package fuzzsched

import (
	"context"
	"embed"
	"fmt"
	"sort"
	"strings"
)

// witnessFS holds the checked-in witness corpus: one replayable witness
// per planted inter-thread bug finding, regenerated with
// DEEPMC_REGEN_WITNESSES=1 (see TestRegenerateWitnessCorpus).  Embedding
// makes the gate independent of the working directory.
//
//go:embed witnesscorpus/*.witness
var witnessFS embed.FS

// CorpusWitnesses decodes the embedded witnesses, in file-name order.
func CorpusWitnesses() ([]*Witness, error) {
	ents, err := witnessFS.ReadDir("witnesscorpus")
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range ents {
		names = append(names, e.Name())
	}
	sort.Strings(names)
	var out []*Witness
	for _, n := range names {
		data, err := witnessFS.ReadFile("witnesscorpus/" + n)
		if err != nil {
			return nil, err
		}
		w, err := DecodeWitness(data)
		if err != nil {
			return nil, fmt.Errorf("fuzzsched: witness %s: %w", n, err)
		}
		out = append(out, w)
	}
	return out, nil
}

// Gate is the fuzz CI gate:
//
//  1. every embedded witness replays byte-identically, and
//  2. a default-budget fuzz run re-finds every planted buggy target
//     (>= 1 witnessed finding) while every planted fixed target stays
//     clean (0 findings).
//
// Returns the rendered gate table and whether everything passed.
func Gate(ctx context.Context) (string, bool) {
	var b strings.Builder
	ok := true
	fail := func(format string, args ...any) {
		ok = false
		fmt.Fprintf(&b, format, args...)
	}

	b.WriteString("fuzz gate: witness replay + planted-bug re-discovery\n")
	ws, err := CorpusWitnesses()
	if err != nil {
		fail("  corpus: %v\n", err)
		ws = nil
	}
	for _, w := range ws {
		t, err := LookupTarget(w.Target)
		if err == nil {
			err = w.Replay(ctx, t, 0)
		}
		if err != nil {
			fail("  replay %-13s %-9s step %-3d FAIL: %v\n", w.Target, w.Code, w.Step, err)
			continue
		}
		fmt.Fprintf(&b, "  replay %-13s %-9s step %-3d ok (byte-identical)\n", w.Target, w.Code, w.Step)
	}

	targets, err := Targets()
	if err != nil {
		fail("  targets: %v\n", err)
	}
	for _, t := range targets {
		res, err := Fuzz(ctx, t, Options{Seed: 1})
		if err != nil {
			fail("  fuzz %-15s FAIL: %v\n", t.Name, err)
			continue
		}
		switch {
		case t.WantClean && len(res.Findings) != 0:
			fail("  fuzz %-15s FAIL: fixed target yielded %d findings\n", t.Name, len(res.Findings))
		case !t.WantClean && len(res.Findings) == 0:
			fail("  fuzz %-15s FAIL: planted bug not re-found in %d execs\n", t.Name, res.Execs)
		default:
			fmt.Fprintf(&b, "  fuzz %-15s %d execs, %d edges, %d candidates -> %d findings ok\n",
				t.Name, res.Execs, res.Edges, res.Candidates, len(res.Findings))
		}
	}

	if ok {
		b.WriteString("fuzz gate PASS\n")
	} else {
		b.WriteString("fuzz gate FAIL\n")
	}
	return b.String(), ok
}
