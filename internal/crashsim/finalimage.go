package crashsim

import (
	"context"
	"fmt"
	"slices"
	"strings"

	"deepmc/internal/ir"
)

// FinalImage executes entry to completion under o's injection schedule
// (Injector takes precedence over Faults; both nil runs fault-free) and
// returns the end-of-run durable image.  This is the schedule fuzzer's
// image-diff witness oracle: a correct program's final durable state is
// schedule-independent, so any word where the image under a genome
// differs from the fault-free baseline is durable evidence the schedule
// changed what survives — not a speculative warning.  Stride, Workers,
// Prune, and the step window are ignored; MaxSteps still bounds the run
// (a truncated prefix yields that prefix's image).
func FinalImage(ctx context.Context, m *ir.Module, entry string, o Options) (*Image, error) {
	if err := ir.Verify(m); err != nil {
		return nil, err
	}
	s := newNVMState(o.Contract)
	if r := execute(ctx, m, entry, s, o, o.MaxSteps); r.stop != runDone && r.stop != runBudget {
		return nil, fmt.Errorf("crashsim: final-image run: %w", r.err)
	}
	return s.image(false), nil
}

// NewImage builds a durable image directly from a word map — the soak
// engine renders its expected-vs-recovered audits through Image.Diff
// without an interpreter run behind either side.  The map is not kept;
// nil yields an empty image.
func NewImage(words map[Word]int64) *Image {
	im := &Image{words: make([]imageWord, 0, len(words))}
	for w, v := range words {
		im.words = append(im.words, imageWord{Word: w, v: v})
	}
	slices.SortFunc(im.words, func(a, b imageWord) int { return compareWords(a.Word, b.Word) })
	return im
}

// Diff renders a deterministic word-level comparison of two durable
// images, one line per differing word ("obj.off: a=.. b=.."), sorted by
// (object, offset).  Empty string means the images agree on every word
// either side recorded.  Witness logs embed this output, so replays can
// assert byte-identity.
func (im *Image) Diff(other *Image) string {
	words := make([]Word, 0, len(im.words)+len(other.words))
	for _, side := range [][]imageWord{im.words, other.words} {
		for _, e := range side {
			words = append(words, e.Word)
		}
	}
	slices.SortFunc(words, compareWords)
	var b strings.Builder
	for _, w := range slices.Compact(words) {
		if a, bv := im.Load(w.Obj, w.Off), other.Load(w.Obj, w.Off); a != bv {
			fmt.Fprintf(&b, "%d.%d: a=%d b=%d\n", w.Obj, w.Off, a, bv)
		}
	}
	return b.String()
}
