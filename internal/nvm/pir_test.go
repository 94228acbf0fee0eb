package nvm

import (
	"bytes"
	"encoding/binary"
	"strings"
	"testing"

	"deepmc/internal/ir"
	"deepmc/internal/pmcontract"
)

// bridgeDiffPIR touches the pool through every bridge path: field
// stores, whole-object and field flushes, a fence, a load, a nested
// transaction with a txadd on each side of the inner txend, a second
// transaction whose undo log restarts at the log's start, and a volatile
// object that must never reach the pool.
const bridgeDiffPIR = `
module diff

type rec struct {
	a: int
	b: int
	c: int
}

func main() {
	%v = alloc rec
	store %v.a, 5
	%p = palloc rec
	store %p.a, 7
	store %p.b, 9
	flush %p
	fence
	%x = load %p.a
	store %v.b, %x
	flush %v
	txbegin
	txadd %p.c
	store %p.c, 11
	txbegin
	txadd %p
	store %p.b, -2
	txend
	txadd %p.a
	store %p.a, 3
	txend
	fence
	flush %p.a
	fence
	txbegin
	txadd %p.b
	store %p.b, 4
	txend
	fence
	ret
}
`

// le returns v as 8 little-endian bytes.
func le(v int64) []byte { return binary.LittleEndian.AppendUint64(nil, uint64(v)) }

// bridgeDiffByHand issues bridgeDiffPIR's pool operations by hand.
func bridgeDiffByHand(t *testing.T, p *Pool) {
	t.Helper()
	must := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	a, err := p.Alloc(24) // %p, at its first event
	must(err)
	must(p.Store(a, le(7)))
	must(p.Store(a+8, le(9)))
	must(p.Flush(a, 24))
	p.Fence()
	_, err = p.Load(a, 8)
	must(err)
	// txadd %p.c: pre-image into the undo log, flushed and fenced.
	pre, err := p.Load(a+16, 8)
	must(err)
	log, err := p.Alloc(logChunk)
	must(err)
	must(p.Store(log, pre))
	must(p.Flush(log, 8))
	p.Fence()
	must(p.Store(a+16, le(11)))
	// txadd %p inside the nested transaction: the next log entry.
	pre, err = p.Load(a, 24)
	must(err)
	must(p.Store(log+8, pre))
	must(p.Flush(log+8, 24))
	p.Fence()
	must(p.Store(a+8, le(-2)))
	// The inner txend issues nothing; txadd %p.a is the third entry.
	pre, err = p.Load(a, 8)
	must(err)
	must(p.Store(log+32, pre))
	must(p.Flush(log+32, 8))
	p.Fence()
	must(p.Store(a, le(3)))
	// The outermost txend flushes the three ranges and fences once.
	must(p.Flush(a+16, 8))
	must(p.Flush(a, 24))
	must(p.Flush(a, 8))
	p.Fence()
	p.Fence()
	must(p.Flush(a, 8))
	p.Fence()
	// The second transaction logs at the start of the log again.
	pre, err = p.Load(a+8, 8)
	must(err)
	must(p.Store(log, pre))
	must(p.Flush(log, 8))
	p.Fence()
	must(p.Store(a+8, le(4)))
	must(p.Flush(a+8, 8))
	p.Fence()
	p.Fence()
}

// TestRunPIRMatchesHandIssuedOps: the bridge leaves the same counters
// and the same durable image as the operations it stands for, under x86
// and under CXL with the whole domain.
func TestRunPIRMatchesHandIssuedOps(t *testing.T) {
	m := ir.MustParse(bridgeDiffPIR)
	for _, tc := range []struct {
		name string
		pool func() *Pool
	}{
		{"x86", func() *Pool { return NewPool(Config{Size: 1 << 14}) }},
		{"cxl-whole", func() *Pool { return NewCXLPool(Config{Size: 1 << 14}, pmcontract.WholeDomain()) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			bridged, hand := tc.pool(), tc.pool()
			if err := RunPIR(bridged, m, "main"); err != nil {
				t.Fatal(err)
			}
			bridgeDiffByHand(t, hand)
			if got, want := bridged.Stats(), hand.Stats(); got != want {
				t.Errorf("stats differ:\nbridge %+v\nhand   %+v", got, want)
			}
			got, _ := bridged.DurableLoad(0, bridged.Size())
			want, _ := hand.DurableLoad(0, hand.Size())
			if !bytes.Equal(got, want) {
				t.Error("durable images differ")
			}
			// The image holds the program's values.
			for off, v := range map[int]int64{0: 3, 8: 4, 16: 11} {
				if w, _ := bridged.DurableLoad64(off); int64(w) != v {
					t.Errorf("durable %%p+%d = %d, want %d", off, int64(w), v)
				}
			}
		})
	}
}

// TestRunPIRReturnsPoolError: a program whose objects overflow the pool
// fails with the pool's error rather than reading as a clean run.
func TestRunPIRReturnsPoolError(t *testing.T) {
	m := ir.MustParse(`
module big
func main() {
	%p = palloc [8]int
	store %p[0], 1
	%q = palloc [8]int
	store %q[0], 2
	flush %q[0]
	fence
	ret
}
`)
	p := NewPool(Config{Size: 100})
	err := RunPIR(p, m, "main")
	if err == nil || !strings.Contains(err.Error(), "nvm: out of space") {
		t.Fatalf("RunPIR = %v, want the pool's out-of-space error", err)
	}
	if st := p.Stats(); st.Stores != 1 || st.Flushes != 0 || st.Fences != 0 {
		t.Errorf("operations issued after the pool failed: %+v", st)
	}
}
