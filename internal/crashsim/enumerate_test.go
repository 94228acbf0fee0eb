package crashsim

import (
	"fmt"
	"sync/atomic"
	"testing"

	"deepmc/internal/ir"
)

// TestPruneMatchesFullEnumeration is the soundness gate for crash-point
// pruning: over both buggy and fixed variants of the reference
// protocols, the pruned enumeration must reach the same verdict as the
// exhaustive one while actually skipping quiet steps.
func TestPruneMatchesFullEnumeration(t *testing.T) {
	progs := []struct {
		name string
		src  string
		inv  Invariant
	}{
		{"commit-buggy", commitProtocol(false), commitInvariant},
		{"commit-fixed", commitProtocol(true), commitInvariant},
		{"barrier-buggy", missingBarrier(false), orderInvariant},
		{"barrier-fixed", missingBarrier(true), orderInvariant},
		{"figure2-buggy", figure2Program(false), figure2Invariant},
		{"figure2-fixed", figure2Program(true), figure2Invariant},
	}
	for _, p := range progs {
		p := p
		t.Run(p.name, func(t *testing.T) {
			m := ir.MustParse(p.src)
			full, err := EnumerateOpts(m, "main", p.inv, Options{})
			if err != nil {
				t.Fatal(err)
			}
			pruned, err := EnumerateOpts(m, "main", p.inv, Options{Prune: true})
			if err != nil {
				t.Fatal(err)
			}
			if full.Clean() != pruned.Clean() {
				t.Fatalf("verdict differs: full clean=%v, pruned clean=%v\nfull:\n%s\npruned:\n%s",
					full.Clean(), pruned.Clean(), full.Detail(), pruned.Detail())
			}
			if pruned.CrashesRun >= full.CrashesRun {
				t.Errorf("pruning did not reduce crash points: %d vs %d", pruned.CrashesRun, full.CrashesRun)
			}
			if pruned.Pruned+pruned.Deduped+pruned.CrashesRun != full.CrashesRun {
				t.Errorf("pruning accounting broken: pruned %d + deduped %d + run %d != total %d",
					pruned.Pruned, pruned.Deduped, pruned.CrashesRun, full.CrashesRun)
			}
		})
	}
}

// TestEnumerateDeterministicAcrossWorkers is the determinism gate: the
// rendered result (including violation order and messages) must be
// byte-identical for every worker count and stride combination.
func TestEnumerateDeterministicAcrossWorkers(t *testing.T) {
	progs := []struct {
		name string
		src  string
		inv  Invariant
	}{
		{"commit-buggy", commitProtocol(false), commitInvariant},
		{"figure2-buggy", figure2Program(false), figure2Invariant},
	}
	for _, p := range progs {
		m := ir.MustParse(p.src)
		for _, stride := range []int{1, 3} {
			var want string
			for _, workers := range []int{1, 2, 8} {
				res, err := EnumerateOpts(m, "main", p.inv, Options{
					Stride: stride, Workers: workers, Prune: true,
				})
				if err != nil {
					t.Fatal(err)
				}
				got := res.Detail()
				if workers == 1 {
					want = got
					continue
				}
				if got != want {
					t.Errorf("%s stride=%d workers=%d: result differs from workers=1:\n%s\nvs\n%s",
						p.name, stride, workers, got, want)
				}
			}
		}
	}
}

// TestTxEndWithoutTxBeginIsGraceful guards the transaction-depth
// underflow edge: a stray txend must not panic or corrupt state.
func TestTxEndWithoutTxBeginIsGraceful(t *testing.T) {
	src := `
module stray

type rec struct {
	x: int
}

func main() {
	%r = palloc rec
	txend
	txend
	store %r.x, 3
	flush %r.x
	fence
	txend
	ret
}
`
	m := ir.MustParse(src)
	inv := func(im *Image) error {
		x, ok := im.LoadField(1, "x")
		if ok && x != 0 && x != 3 {
			return fmt.Errorf("x = %d, want 0 or 3", x)
		}
		return nil
	}
	for _, prune := range []bool{false, true} {
		res, err := EnumerateOpts(m, "main", inv, Options{Prune: prune})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Clean() {
			t.Errorf("prune=%v: stray txend corrupted durable state:\n%s", prune, res.Detail())
		}
	}
}

// TestCrashInNestedTxRollsBackBothLevels: a crash anywhere inside an
// open nested transaction must roll back words logged at either level —
// recovery exposes only (0,0) before the outer commit and (1,2) after.
func TestCrashInNestedTxRollsBackBothLevels(t *testing.T) {
	src := `
module nested

type pair struct {
	x: int
	y: int
}

func main() {
	%p = palloc pair
	txbegin
	txadd %p.x
	store %p.x, 1
	txbegin
	txadd %p.y
	store %p.y, 2
	txend
	txend
	fence
	ret
}
`
	m := ir.MustParse(src)
	inv := func(im *Image) error {
		x, _ := im.LoadField(1, "x")
		y, _ := im.LoadField(1, "y")
		if (x == 0 && y == 0) || (x == 1 && y == 2) {
			return nil
		}
		return fmt.Errorf("recovered (x=%d, y=%d): nested rollback torn", x, y)
	}
	for _, prune := range []bool{false, true} {
		res, err := EnumerateOpts(m, "main", inv, Options{Prune: prune})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Clean() {
			t.Errorf("prune=%v: nested transaction is not crash-atomic:\n%s", prune, res.Detail())
		}
	}
}

// TestObjectsSurvivesNonContiguousIDs is the regression test for the
// durable-image truncation bug: object IDs are shared with volatile
// allocations, so persistent IDs have gaps, and Objects() used to stop
// at the first one.
func TestObjectsSurvivesNonContiguousIDs(t *testing.T) {
	src := `
module gaps

type rec struct {
	v: int
}

func main() {
	%a = palloc rec
	%tmp = alloc rec
	%b = palloc rec
	store %a.v, 1
	flush %a.v
	fence
	store %tmp.v, 9
	store %b.v, 2
	flush %b.v
	fence
	ret
}
`
	m := ir.MustParse(src)
	var sawBoth atomic.Bool // set from the enumeration's worker pool
	inv := func(im *Image) error {
		objs := im.Objects()
		for _, o := range objs {
			if !o.Persistent {
				return fmt.Errorf("volatile object %d leaked into the durable image", o.ID)
			}
		}
		// Object IDs here are 1 (a), 2 (volatile tmp), 3 (b): once both
		// stores are durable, both persistent objects must be visible
		// despite the ID gap at 2.
		a, _ := im.LoadField(1, "v")
		b, _ := im.LoadField(3, "v")
		if a == 1 && b == 2 {
			if len(objs) != 2 {
				return fmt.Errorf("durable image has %d objects, want 2 (ID gap truncated)", len(objs))
			}
			sawBoth.Store(true)
		}
		return nil
	}
	res, err := EnumerateOpts(m, "main", inv, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Clean() {
		t.Fatalf("image invariant violated:\n%s", res.Detail())
	}
	if !sawBoth.Load() {
		t.Fatal("no crash point reached the fully-persisted state with both objects")
	}
}

// TestOptionsMaxStepsBounds ensures the planning budget cuts
// enumeration off without error.
func TestOptionsMaxStepsBounds(t *testing.T) {
	m := ir.MustParse(commitProtocol(true))
	res, err := EnumerateOpts(m, "main", commitInvariant, Options{Prune: true, MaxSteps: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalSteps > 3 {
		t.Errorf("budgeted run counted %d steps, want <= 3", res.TotalSteps)
	}
}
