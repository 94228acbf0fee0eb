package interp

import (
	"slices"
	"strings"
	"testing"

	"deepmc/internal/ir"
)

func TestArithmeticAndControlFlow(t *testing.T) {
	src := `
module m

func fib(n) int {
	%c = lt %n, 2
	condbr %c, base, rec
base:
	ret %n
rec:
	%a = sub %n, 1
	%b = sub %n, 2
	%x = call fib(%a)
	%y = call fib(%b)
	%r = add %x, %y
	ret %r
}
`
	ip := New(ir.MustParse(src), nil)
	v, err := ip.Run("fib", 10)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if v.I != 55 {
		t.Errorf("fib(10) = %d, want 55", v.I)
	}
}

func TestStructFieldsAndArrays(t *testing.T) {
	src := `
module m

type rec struct {
	a: int
	arr: [4]int
	b: int
}

func f() int {
	%p = palloc rec
	store %p.a, 7
	store %p.b, 9
	%i = const 2
	%e = index %p.arr, %i
	store %e, 5
	%x = load %p.a
	%y = load %p.b
	%z = load %p.arr[2]
	%s1 = add %x, %y
	%s2 = add %s1, %z
	ret %s2
}
`
	ip := New(ir.MustParse(src), nil)
	v, err := ip.Run("f")
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if v.I != 21 {
		t.Errorf("f() = %d, want 21", v.I)
	}
}

func TestPointerPassing(t *testing.T) {
	src := `
module m

type box struct {
	v: int
}

func setv(b: *box, x) {
	store %b.v, %x
	ret
}

func f() int {
	%b = palloc box
	call setv(%b, 42)
	%r = load %b.v
	ret %r
}
`
	ip := New(ir.MustParse(src), nil)
	v, err := ip.Run("f")
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if v.I != 42 {
		t.Errorf("f() = %d, want 42", v.I)
	}
}

func TestMemSetAndMemCopy(t *testing.T) {
	src := `
module m

type buf struct {
	data: [4]int
}

func f() int {
	%a = palloc buf
	%b = palloc buf
	memset %a.data, 3, 32
	memcopy %b.data, %a.data, 32
	%x = load %b.data[3]
	ret %x
}
`
	ip := New(ir.MustParse(src), nil)
	v, err := ip.Run("f")
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if v.I != 3 {
		t.Errorf("f() = %d, want 3", v.I)
	}
}

type countingHooks struct {
	NopHooks
	writes, reads, flushes, fences int // persistent-object events
	volatileEvents                 int
}

func (h *countingHooks) count(obj *Object, persistent *int) {
	if obj.Persistent {
		*persistent++
	} else {
		h.volatileEvents++
	}
}

func (h *countingHooks) OnWrite(o *Object, _, _ int, _ *ir.Site) { h.count(o, &h.writes) }
func (h *countingHooks) OnRead(o *Object, _, _ int, _ *ir.Site)  { h.count(o, &h.reads) }
func (h *countingHooks) OnFlush(o *Object, _, _ int, _ *ir.Site) { h.count(o, &h.flushes) }
func (h *countingHooks) OnFence(*ir.Site)                        { h.fences++ }

func TestHooksCarryPersistence(t *testing.T) {
	src := `
module m

type o struct {
	x: int
}

func f() {
	%p = palloc o
	%v = alloc o
	store %p.x, 1
	store %v.x, 2
	%a = load %p.x
	%b = load %v.x
	flush %p.x
	flush %v.x
	fence
	ret
}
`
	h := &countingHooks{}
	ip := New(ir.MustParse(src), h)
	if _, err := ip.Run("f"); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if h.writes != 1 || h.reads != 1 || h.flushes != 1 {
		t.Errorf("persistent events writes=%d reads=%d flushes=%d, want 1 each",
			h.writes, h.reads, h.flushes)
	}
	if h.volatileEvents != 3 {
		t.Errorf("volatile events = %d, want 3 (store, load, flush)", h.volatileEvents)
	}
	if h.fences != 1 {
		t.Errorf("fences = %d", h.fences)
	}
}

func TestErrors(t *testing.T) {
	cases := []struct{ name, src, fn string }{
		{"undefined function", "module m\nfunc f() {\n call nope()\n ret\n}\n", "f"},
		{"div by zero", "module m\nfunc f() int {\n %z = const 0\n %r = div 1, %z\n ret %r\n}\n", "f"},
		{"index out of range", `
module m
type b struct {
	arr: [2]int
}
func f() {
	%p = alloc b
	%i = const 5
	%e = index %p.arr, %i
	store %e, 1
	ret
}
`, "f"},
		{"load through int", "module m\nfunc f() int {\n %x = const 3\n %r = load %x\n ret %r\n}\n", "f"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ip := New(ir.MustParse(tc.src), nil)
			if _, err := ip.Run(tc.fn); err == nil {
				t.Error("expected error")
			}
		})
	}
}

// rangeHooks records every range a hook is handed.
type rangeHooks struct {
	NopHooks
	ranges []int
}

func (h *rangeHooks) OnWrite(_ *Object, _, size int, _ *ir.Site) { h.ranges = append(h.ranges, size) }
func (h *rangeHooks) OnRead(_ *Object, _, size int, _ *ir.Site)  { h.ranges = append(h.ranges, size) }
func (h *rangeHooks) OnFlush(_ *Object, _, size int, _ *ir.Site) { h.ranges = append(h.ranges, size) }
func (h *rangeHooks) OnTxAdd(_ *Object, _, size int, _ *ir.Site) { h.ranges = append(h.ranges, size) }

// TestSizeOperandOutOfBounds: a negative size, or a flush or txadd
// range running past its 16-byte object, is refused with the error load
// and store give, before any hook sees the range.
func TestSizeOperandOutOfBounds(t *testing.T) {
	for _, tc := range []struct{ name, op, want string }{
		{"flush past object", "flush %p, 4096000000", "flush out of bounds: obj1+0"},
		{"flush field past object", "flush %p.b, 16", "flush out of bounds: obj1+8"},
		{"flush negative", "flush %p, -64", "flush out of bounds: obj1+0"},
		{"txadd past object", "txadd %p, 80000000", "txadd out of bounds: obj1+0"},
		{"txadd negative", "txadd %p.b, -8", "txadd out of bounds: obj1+8"},
		{"memset negative", "memset %p, 1, -64", "memset out of bounds: obj1+0"},
		{"memset past object", "memset %p.b, 1, 16", "memset out of bounds: obj1+8"},
		{"memcopy negative", "memcopy %p.b, %p, -8", "memcopy out of bounds: obj1+8"},
		{"memcopy past source", "memcopy %p, %p.b, 16", "memcopy out of bounds: obj1+8"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			src := "module m\ntype pair struct {\n\ta: int\n\tb: int\n}\nfunc f() {\n\t%p = palloc pair\n\t" +
				tc.op + "\n\tret\n}\n"
			h := &rangeHooks{}
			_, err := New(ir.MustParse(src), h).Run("f")
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("%s: err = %v, want %q", tc.op, err, tc.want)
			}
			if len(h.ranges) != 0 {
				t.Errorf("%s: hooks saw ranges %v", tc.op, h.ranges)
			}
		})
	}
	// The whole object, and an empty range at its end, stay legal.
	ok := "module m\ntype pair struct {\n\ta: int\n\tb: int\n}\nfunc f() {\n\t%p = palloc pair\n\t" +
		"txadd %p, 16\n\tmemset %p, 1, 16\n\tflush %p.b, 8\n\tflush %p.b, 0\n\tret\n}\n"
	h := &rangeHooks{}
	if _, err := New(ir.MustParse(ok), h).Run("f"); err != nil {
		t.Fatalf("in-bounds ranges refused: %v", err)
	}
	if want := []int{16, 16, 8, 0}; !slices.Equal(h.ranges, want) {
		t.Errorf("hook ranges = %v, want %v", h.ranges, want)
	}
}

func TestStepBudget(t *testing.T) {
	src := `
module m

func f() {
	br loop
loop:
	br loop
}
`
	ip := New(ir.MustParse(src), nil)
	ip.MaxSteps = 1000
	if _, err := ip.Run("f"); err == nil {
		t.Error("infinite loop must exhaust step budget")
	}
}
