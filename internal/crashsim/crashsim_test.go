package crashsim

import (
	"fmt"
	"testing"

	"deepmc/internal/ir"
)

// commitProtocol returns buggy/fixed variants of a commit protocol:
// data must be durable before the commit flag claims it is.  The buggy
// variant never flushes the data word — the unflushed-write class.
func commitProtocol(fixed bool) string {
	flushData := ""
	if fixed {
		flushData = "\tflush %r.data\n\tfence\n"
	}
	return fmt.Sprintf(`
module commit

type rec struct {
	data: int
	flag: int
}

func main() {
	%%r = palloc rec
	store %%r.data, 7
%s	store %%r.flag, 1
	flush %%r.flag
	fence
	ret
}
`, flushData)
}

// commitInvariant: whenever the flag is durable, the data must be too.
func commitInvariant(im *Image) error {
	rec := 1 // first allocated object
	flag, ok := im.LoadField(rec, "flag")
	if !ok || flag == 0 {
		return nil // not committed yet: any state is fine
	}
	data, _ := im.LoadField(rec, "data")
	if data != 7 {
		return fmt.Errorf("flag durable but data = %d", data)
	}
	return nil
}

func TestUnflushedWriteLosesDataAtSomeCrashPoint(t *testing.T) {
	m := ir.MustParse(commitProtocol(false))
	res, err := EnumerateOpts(m, "main", commitInvariant, Options{Stride: 1, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Clean() {
		t.Fatalf("the unflushed-write bug produced no inconsistent crash state:\n%s", res)
	}
}

func TestFixedProtocolSurvivesEveryCrashPoint(t *testing.T) {
	m := ir.MustParse(commitProtocol(true))
	res, err := EnumerateOpts(m, "main", commitInvariant, Options{Stride: 1, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Clean() {
		t.Fatalf("fixed protocol violated the invariant:\n%s", res)
	}
	if res.CrashesRun == 0 || res.TotalSteps == 0 {
		t.Errorf("no crash points enumerated: %+v", res)
	}
}

// missingBarrier returns the Figure 3 pattern: two ordered updates where
// the first lacks a fence after its flush, so the second may persist
// first.
func missingBarrier(fixed bool) string {
	fence := ""
	if fixed {
		fence = "\tfence\n"
	}
	return fmt.Sprintf(`
module region

type hdr struct {
	header: int
	root: int
}

func main() {
	%%r = palloc hdr
	store %%r.header, 1
	flush %%r.header
%s	store %%r.root, 5
	flush %%r.root
	fence
	ret
}
`, fence)
}

// orderInvariant: the root pointer must never be durable before the
// header that owns it.
func orderInvariant(im *Image) error {
	root, _ := im.LoadField(1, "root")
	if root == 0 {
		return nil
	}
	header, _ := im.LoadField(1, "header")
	if header != 1 {
		return fmt.Errorf("root durable (%d) before header (%d)", root, header)
	}
	return nil
}

func TestMissingBarrierAllowsReordering(t *testing.T) {
	m := ir.MustParse(missingBarrier(false))
	res, err := EnumerateOpts(m, "main", orderInvariant, Options{Stride: 1, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Clean() {
		t.Fatalf("missing barrier produced no ordering violation:\n%s", res)
	}
}

func TestBarrierEnforcesOrdering(t *testing.T) {
	m := ir.MustParse(missingBarrier(true))
	res, err := EnumerateOpts(m, "main", orderInvariant, Options{Stride: 1, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Clean() {
		t.Fatalf("fenced updates still reorder:\n%s", res)
	}
}

// TestSemanticMismatchWindow reproduces Figure 1's crash window: bucket
// initialization persisted separately from the bucket count.
func TestSemanticMismatchWindow(t *testing.T) {
	src := `
module hashmap

type hm struct {
	nbuckets: int
	bucket0: int
}

func main() {
	%h = palloc hm
	store %h.bucket0, 99
	flush %h.bucket0
	fence
	store %h.nbuckets, 1
	flush %h.nbuckets
	fence
	ret
}
`
	inv := func(im *Image) error {
		b0, _ := im.LoadField(1, "bucket0")
		n, _ := im.LoadField(1, "nbuckets")
		if b0 != 0 && n == 0 {
			return fmt.Errorf("buckets initialized (%d) but count lost (%d)", b0, n)
		}
		return nil
	}
	m := ir.MustParse(src)
	res, err := EnumerateOpts(m, "main", inv, Options{Stride: 1, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Clean() {
		t.Fatal("the Figure 1 crash window was not found")
	}
}

func TestStrideSampling(t *testing.T) {
	m := ir.MustParse(commitProtocol(true))
	full, err := EnumerateOpts(m, "main", commitInvariant, Options{Stride: 1, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	sampled, err := EnumerateOpts(m, "main", commitInvariant, Options{Stride: 3, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if sampled.CrashesRun >= full.CrashesRun {
		t.Errorf("stride did not reduce crash points: %d vs %d", sampled.CrashesRun, full.CrashesRun)
	}
}

func TestImageAccessors(t *testing.T) {
	m := ir.MustParse(commitProtocol(true))
	res, err := EnumerateOpts(m, "main", func(im *Image) error {
		if len(im.Objects()) > 1 {
			return fmt.Errorf("too many objects")
		}
		if _, ok := im.LoadField(99, "flag"); ok {
			return fmt.Errorf("unknown object resolved")
		}
		if _, ok := im.LoadField(1, "nope"); ok && len(im.Objects()) > 0 {
			return fmt.Errorf("unknown field resolved")
		}
		return nil
	}, Options{Stride: 1, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Clean() {
		t.Errorf("accessor invariants failed:\n%s", res)
	}
}
