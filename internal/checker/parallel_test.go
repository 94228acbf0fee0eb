package checker

import (
	"context"
	"testing"

	"deepmc/internal/ir"
	"deepmc/internal/report"
)

// parSrc exercises the shapes the parallel scheduler must get right:
// multiple roots, shared callees (memoized once, checked from several
// contexts), self-recursion and mutual recursion (SCC waves), and
// warnings from several functions landing at distinct lines.
const parSrc = `
module par

type item struct {
	key: int
	val: int
}

func persist(p: *item) {
	store %p.key, 1 @10
	flush %p.key    @11
	fence           @12
	ret
}

func leaky(p: *item) {
	store %p.val, 2 @20
	ret
}

func selfrec(p: *item, n) {
	%c = lt %n, 1
	condbr %c, done, more
more:
	%m = add %n, -1
	call selfrec(%p, %m)
	br done
done:
	store %p.val, 3 @30
	flush %p.val    @31
	fence           @32
	ret
}

func ping(p: *item, n) {
	%c = lt %n, 1
	condbr %c, done, more
more:
	%m = add %n, -1
	call pong(%p, %m)
	br done
done:
	ret
}

func pong(p: *item, n) {
	call ping(%p, %n)
	store %p.key, 4 @40
	ret
}

func rootA() {
	%p = palloc item
	call persist(%p)
	call leaky(%p)   @52
	fence
	ret
}

func rootB() {
	%p = palloc item
	call leaky(%p)   @62
	call selfrec(%p, 3)
	ret
}

func rootC() {
	%p = palloc item
	call ping(%p, 2)
	fence
	ret
}
`

func render(rep *report.Report) string {
	rep.Sort()
	out := ""
	for _, w := range rep.Warnings {
		out += w.String() + "\n"
	}
	return out
}

// TestParallelMatchesCheckModule pins the deterministic-merge guarantee
// at the checker layer: any worker count reproduces the serial report
// byte for byte, across repeated runs (fresh analysis each time, so map
// iteration orders and goroutine interleavings get shaken).
func TestParallelMatchesCheckModule(t *testing.T) {
	m := ir.MustParse(parSrc)
	want := render(Check(m, Strict))
	if want == "" {
		t.Fatal("test module produced no warnings; the comparison would be vacuous")
	}
	for iter := 0; iter < 5; iter++ {
		for _, workers := range []int{0, 1, 2, 8} {
			got := render(New(ir.MustParse(parSrc), DefaultOptions(Strict)).CheckModuleParallelCtx(context.Background(), workers))
			if got != want {
				t.Fatalf("iter %d workers %d: parallel report diverged\n--- serial:\n%s--- parallel:\n%s",
					iter, workers, want, got)
			}
		}
	}
}

// TestParallelAllFunctions covers the AllFunctions target set, where
// every function (not just roots) is scanned standalone.
func TestParallelAllFunctions(t *testing.T) {
	opts := DefaultOptions(Strict)
	opts.AllFunctions = true
	want := render(New(ir.MustParse(parSrc), opts).CheckModule())
	for _, workers := range []int{2, 8} {
		got := render(New(ir.MustParse(parSrc), opts).CheckModuleParallelCtx(context.Background(), workers))
		if got != want {
			t.Fatalf("workers %d: AllFunctions parallel report diverged\n--- serial:\n%s--- parallel:\n%s",
				workers, want, got)
		}
	}
}

// TestPrecomputeSharesCache verifies the wave precompute leaves every
// function's traces memoized, so the check phase performs no trace
// collection of its own.
func TestPrecomputeSharesCache(t *testing.T) {
	m := ir.MustParse(parSrc)
	c := New(m, DefaultOptions(Strict))
	c.precomputeTraces(context.Background(), 4, nil)
	for _, name := range m.FuncNames() {
		// A memo hit returns the identical slice; a recompute would
		// allocate a fresh one.  Compare slice identity via the first
		// element when non-empty.
		a := c.Collector.FunctionTraces(name)
		b := c.Collector.FunctionTraces(name)
		if len(a) != len(b) {
			t.Fatalf("%s: memo unstable: %d vs %d traces", name, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: trace %d recomputed instead of memoized", name, i)
			}
		}
	}
}
