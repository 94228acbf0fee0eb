package crashsim_test

import (
	"testing"

	"deepmc/internal/corpus"
	"deepmc/internal/crashsim"
	"deepmc/internal/ir"
)

// FuzzEnumerate throws arbitrary PIR at the crash enumerator: any
// program that parses and verifies must enumerate without panicking,
// and the rendered result must be byte-identical across worker counts
// and invariant under pruning (a pruned run reaches the same verdict).
// Seeds are the real corpus programs plus small protocols that exercise
// transactions, epochs, volatile allocations and out-of-object sizes.
func FuzzEnumerate(f *testing.F) {
	for _, p := range corpus.All() {
		f.Add(p.Source)
	}
	f.Add(`
module seed1
type rec struct {
	data: int
	flag: int
}
func main() {
	%r = palloc rec
	txbegin
	txadd %r.data
	store %r.data, 7
	txend
	store %r.flag, 1
	flush %r.flag
	fence
	ret
}
`)
	f.Add(`
module seed2
type pair struct {
	x: int
	y: int
}
func main() {
	%v = alloc pair
	%p = palloc pair
	epochbegin
	store %p.x, 1
	flush %p.x
	epochend
	fence
	store %v.y, 9
	txend
	ret
}
`)
	// Size operands outside their object: a txadd range 4096 bytes past
	// a 16-byte object, and a negative flush.  The interpreter refuses
	// both; the fuzzer mutates from these shapes.
	f.Add(`
module seed3
type pair struct {
	x: int
	y: int
}
func main() {
	%p = palloc pair
	txbegin
	txadd %p, 4112
	store %p.x, 1
	txend
	fence
	ret
}
`)
	f.Add(`
module seed4
type pair struct {
	x: int
	y: int
}
func main() {
	%p = palloc pair
	store %p.y, 2
	flush %p.y, -64
	fence
	ret
}
`)
	f.Fuzz(func(t *testing.T, src string) {
		m, err := ir.Parse(src)
		if err != nil {
			return
		}
		if err := ir.Verify(m); err != nil {
			return
		}
		entry := "main"
		if m.Func(entry) == nil {
			names := m.FuncNames()
			if len(names) == 0 {
				return
			}
			entry = names[0]
		}
		// Accept every durable image: the fuzz target is crash-free
		// enumeration and determinism, not any particular protocol.
		inv := func(*crashsim.Image) error { return nil }
		base, err := crashsim.EnumerateOpts(m, entry, inv, crashsim.Options{
			Prune: true, Workers: 1, MaxSteps: 600,
		})
		if err != nil {
			return // entry needs arguments, traps, etc. — not a crash
		}
		for _, workers := range []int{2, 8} {
			res, err := crashsim.EnumerateOpts(m, entry, inv, crashsim.Options{
				Prune: true, Workers: workers, MaxSteps: 600,
			})
			if err != nil {
				t.Fatalf("workers=%d errored where workers=1 succeeded: %v", workers, err)
			}
			if res.Detail() != base.Detail() {
				t.Fatalf("workers=%d: result differs from workers=1:\n%s\nvs\n%s",
					workers, res.Detail(), base.Detail())
			}
		}
		full, err := crashsim.EnumerateOpts(m, entry, inv, crashsim.Options{MaxSteps: 600})
		if err != nil {
			t.Fatalf("unpruned run errored where pruned succeeded: %v", err)
		}
		if full.Clean() != base.Clean() {
			t.Fatalf("pruning changed the verdict: full clean=%v, pruned clean=%v", full.Clean(), base.Clean())
		}
	})
}
