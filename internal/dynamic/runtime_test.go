package dynamic

import (
	"testing"
	"unsafe"

	"deepmc/internal/interp"
)

// TestAddrOfInjective is the regression test for the shadow-address
// aliasing bug: the old encoding (id<<32 | uint32(off)) truncated the
// offset to 32 bits, so offsets 4 GiB apart — and negative offsets —
// collapsed onto the same shadow address and produced false
// happens-before conflicts between unrelated words.
func TestAddrOfInjective(t *testing.T) {
	r := NewRuntime(false)
	obj := &interp.Object{ID: 1, Persistent: true, Slots: make([]interp.Val, 4)}
	other := &interp.Object{ID: 2, Persistent: true, Slots: make([]interp.Val, 4)}

	offsets := []int{0, 8, 24, 1 << 32, (1 << 32) + 8, (1 << 33), -8, -(1 << 32) - 8}
	seen := map[uint64]int{}
	for _, off := range offsets {
		a := r.addrOf(obj, off)
		if prev, dup := seen[a]; dup {
			t.Errorf("offsets %d and %d alias to shadow address %#x", prev, off, a)
		}
		seen[a] = off
	}

	// The mapping must be stable: the same (object, offset) pair always
	// resolves to the same cell.
	for _, off := range offsets {
		first := r.addrOf(obj, off)
		if again := r.addrOf(obj, off); again != first {
			t.Errorf("offset %d: address changed across calls (%#x vs %#x)", off, first, again)
		}
	}

	// Distinct objects never share cells, in-range or out.
	for _, off := range offsets {
		a := r.addrOf(other, off)
		if prev, dup := seen[a]; dup {
			t.Errorf("obj 2 offset %d aliases obj 1 offset %d at %#x", off, prev, a)
		}
	}
}

// TestAddrOfInRangeContiguous pins the fast path: offsets inside the
// slot array map onto one contiguous region, so granule arithmetic in
// OnWrite/OnRead lands on adjacent shadow words.
func TestAddrOfInRangeContiguous(t *testing.T) {
	r := NewRuntime(false)
	obj := &interp.Object{ID: 7, Persistent: true, Slots: make([]interp.Val, 3)}
	base := r.addrOf(obj, 0)
	for off := 0; off < 24; off += 8 {
		if got := r.addrOf(obj, off); got != base+uint64(off) {
			t.Errorf("offset %d: got %#x, want contiguous %#x", off, got, base+uint64(off))
		}
	}
}

// TestAccessSize pins the shadow access record: strand, clock, global
// epoch and one site pointer.  Every shadow cell holds one per write and
// one per reading strand.
func TestAccessSize(t *testing.T) {
	if n := unsafe.Sizeof(access{}); n > 32 {
		t.Errorf("access is %d bytes, want at most 32", n)
	}
}
