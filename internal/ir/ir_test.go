package ir

import (
	"math"
	"strings"
	"testing"
)

const sampleSrc = `
module sample

type node struct {
	n: int
	items: [8]int
	next: *node
}

func touch(p: *node, v) int {
	file "sample.c"
	%x = load %p.n          @10
	%y = add %x, %v
	store %p.n, %y          @12
	flush %p.n              @13
	fence                   @14
	%cond = gt %y, 0
	condbr %cond, pos, neg
pos:
	ret %y
neg:
	%z = const 0
	ret %z
}

func main() {
	%n = palloc node
	store %n.n, 1 @20
	%r = call touch(%n, 5)
	ret
}
`

func TestParseBasics(t *testing.T) {
	m, err := Parse(sampleSrc)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if m.Name != "sample" {
		t.Errorf("module name = %q, want sample", m.Name)
	}
	nt := m.Types["node"]
	if nt == nil {
		t.Fatal("type node missing")
	}
	if len(nt.Fields) != 3 {
		t.Fatalf("node has %d fields, want 3", len(nt.Fields))
	}
	if nt.Fields[1].Type.Kind != KArray || nt.Fields[1].Type.Len != 8 {
		t.Errorf("items type = %v", nt.Fields[1].Type)
	}
	f := m.Func("touch")
	if f == nil {
		t.Fatal("func touch missing")
	}
	if f.File != "sample.c" {
		t.Errorf("file = %q", f.File)
	}
	if len(f.Params) != 2 || f.Params[0].Name != "p" || f.Params[0].Type == nil {
		t.Errorf("params = %+v", f.Params)
	}
	if len(f.Blocks) != 3 {
		t.Fatalf("touch has %d blocks, want 3", len(f.Blocks))
	}
	if err := Verify(m); err != nil {
		t.Fatalf("Verify: %v", err)
	}
}

func TestParseLineAnnotations(t *testing.T) {
	m := MustParse(sampleSrc)
	f := m.Func("touch")
	entry := f.Entry()
	// The first statement "%x = load %p.n @10" lowers to a gep + load,
	// both stamped with line 10.
	if entry.Instrs[0].Op != OpGEP || entry.Instrs[0].Line != 10 {
		t.Errorf("instr 0 = %v line %d, want gep @10", entry.Instrs[0].Op, entry.Instrs[0].Line)
	}
	if entry.Instrs[1].Op != OpLoad || entry.Instrs[1].Line != 10 {
		t.Errorf("instr 1 = %v line %d, want load @10", entry.Instrs[1].Op, entry.Instrs[1].Line)
	}
	// Line annotations are sticky: the add without @ keeps line 10.
	if entry.Instrs[2].Op != OpBin || entry.Instrs[2].Line != 10 {
		t.Errorf("instr 2 = %v line %d, want bin @10", entry.Instrs[2].Op, entry.Instrs[2].Line)
	}
}

func TestRoundTrip(t *testing.T) {
	m := MustParse(sampleSrc)
	text1 := Print(m)
	m2, err := Parse(text1)
	if err != nil {
		t.Fatalf("reparse: %v\nsource:\n%s", err, text1)
	}
	text2 := Print(m2)
	if text1 != text2 {
		t.Errorf("print/parse/print not stable:\n--- first:\n%s\n--- second:\n%s", text1, text2)
	}
}

func TestBuilderMatchesParser(t *testing.T) {
	mod := NewModule("built")
	nt := mod.AddType(StructType("node",
		Field{Name: "n", Type: IntType},
		Field{Name: "next", Type: PtrTo(&Type{Kind: KStruct, Name: "node"})},
	))
	b := NewBuilder(mod)
	b.BeginFunc("write_n", Pm("p", PtrTo(nt)))
	b.SetFile("built.c")
	b.Line(5)
	b.StoreField("p", "n", C(7))
	b.Line(6)
	b.FlushField("p", "n")
	b.Fence()
	b.Ret()
	if err := Verify(mod); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	f := mod.Func("write_n")
	ops := []Op{OpGEP, OpStore, OpGEP, OpFlush, OpFence, OpRet}
	got := f.Entry().Instrs
	if len(got) != len(ops) {
		t.Fatalf("got %d instrs, want %d", len(got), len(ops))
	}
	for i, op := range ops {
		if got[i].Op != op {
			t.Errorf("instr %d = %v, want %v", i, got[i].Op, op)
		}
	}
}

func TestVerifyCatchesErrors(t *testing.T) {
	cases := []struct {
		name string
		src  string
		want string
	}{
		{
			name: "missing terminator",
			src:  "module m\nfunc f() {\n fence\n}\n",
			want: "does not end in a terminator",
		},
		{
			name: "undefined register",
			src:  "module m\nfunc f() {\n store %p, 1\n ret\n}\n",
			want: "undefined register",
		},
		{
			name: "bad branch target",
			src:  "module m\nfunc f() {\n br nowhere\n}\n",
			want: "unknown block",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m, err := Parse(tc.src)
			if err != nil {
				t.Fatalf("Parse: %v", err)
			}
			err = Verify(m)
			if err == nil {
				t.Fatal("Verify passed, want failure")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"func f() { ret }\n",                                     // missing module header
		"module m\nfunc f( {\n ret\n}",                           // bad params
		"module m\nfunc f() {\n %x = frobnicate 1, 2\n ret\n}\n", // unknown op
		"module m\nfunc f() {\n store 1\n ret\n}\n",              // missing operand
	}
	for _, src := range cases {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse succeeded on invalid source %q", src)
		}
	}
}

// TestParseRejectsOutOfRangeLiterals pins the errors for integer
// literals outside int64 (in a const, an @N line and an array length)
// and for negative array lengths, which once parsed as wrapped values.
func TestParseRejectsOutOfRangeLiterals(t *testing.T) {
	for _, tc := range []struct{ src, want string }{
		{"module m\nfunc f() {\n %x = const 99999999999999999999\n ret\n}\n",
			"pir: line 3: integer literal 99999999999999999999 out of range"},
		{"module m\nfunc f() {\n %x = const 9223372036854775808\n ret\n}\n",
			"pir: line 3: integer literal 9223372036854775808 out of range"},
		{"module m\nfunc f() {\n %x = const -9223372036854775809\n ret\n}\n",
			"pir: line 3: integer literal -9223372036854775809 out of range"},
		{"module m\nfunc f() {\n fence @18446744073709551621\n ret\n}\n",
			"pir: line 3: integer literal 18446744073709551621 out of range"},
		{"module m\n\ntype t struct {\n a: [-3]int\n}\n",
			"pir: line 4: negative array length -3"},
		{"module m\n\ntype t struct {\n a: [99999999999999999999]int\n}\n",
			"pir: line 4: integer literal 99999999999999999999 out of range"},
	} {
		_, err := Parse(tc.src)
		if err == nil || err.Error() != tc.want {
			t.Errorf("Parse(%q) = %v, want %q", tc.src, err, tc.want)
		}
	}
	// The extremes of int64 stay literals.
	m, err := Parse("module m\nfunc f() {\n %a = const 9223372036854775807\n %b = const -9223372036854775808\n ret\n}\n")
	if err != nil {
		t.Fatal(err)
	}
	in := m.Func("f").Blocks[0].Instrs
	if in[0].Args[0] != C(math.MaxInt64) || in[1].Args[0] != C(math.MinInt64) {
		t.Errorf("extremes parsed as %v and %v", in[0].Args[0], in[1].Args[0])
	}
}

// TestParseRejectsOversizedTypes pins the error for a type whose byte
// size overflows int although every literal in it is in range: a
// declared struct, an allocated array, and an allocated array of a
// struct declared after its use.  Such sizes once wrapped (to 0 for the
// first), so the checker and the interpreter disagreed on the layout.
func TestParseRejectsOversizedTypes(t *testing.T) {
	for _, tc := range []struct{ src, want string }{
		{"module m\n\ntype big struct { a: [4611686018427387904][4]int }\n\nfunc main() {\n %p = palloc big\n store %p.a[1][2], 5\n ret\n}\n",
			"pir: line 3: size of type big overflows int"},
		{"module m\n\ntype t struct {\n a: [1152921504606846975]int\n b: [1]int\n c: int\n}\n",
			"pir: line 3: size of type t overflows int"},
		{"module m\nfunc main() {\n %p = palloc [2305843009213693952][2]int\n ret\n}\n",
			"pir: line 3: size of type [2305843009213693952][2]int overflows int"},
		{"module m\nfunc main() {\n %p = alloc [1152921504606846976]later\n ret\n}\n\ntype later struct {\n a: int\n}\n",
			"pir: line 3: size of type [1152921504606846976]later overflows int"},
	} {
		_, err := Parse(tc.src)
		if err == nil || err.Error() != tc.want {
			t.Errorf("Parse(%q) = %v, want %q", tc.src, err, tc.want)
		}
	}
	// The largest sizes that fit still parse.
	for _, src := range []string{
		"module m\n\ntype t struct {\n a: [1152921504606846974]int\n b: int\n c: [0][4]int\n}\n",
		"module m\nfunc main() {\n %p = palloc [1152921504606846975]int\n ret\n}\n",
	} {
		if _, err := Parse(src); err != nil {
			t.Errorf("Parse(%q): %v", src, err)
		}
	}
}

// TestLexErrorWinsOverParseError: the parser pulls tokens as it goes,
// but a lexical error later in the source is still the one reported
// over an earlier syntax error.
func TestLexErrorWinsOverParseError(t *testing.T) {
	_, err := Parse("module m\nfunc f() {\n bogus 1\n ret\n}\n$\n")
	if want := `pir: line 6: unexpected character "$"`; err == nil || err.Error() != want {
		t.Errorf("Parse = %v, want %q", err, want)
	}
}

func TestTypeSizeAndOffsets(t *testing.T) {
	st := StructType("s",
		Field{Name: "a", Type: IntType},
		Field{Name: "b", Type: ArrayOf(4, IntType)},
		Field{Name: "c", Type: PtrTo(IntType)},
	)
	if got := st.Size(); got != 8+32+8 {
		t.Errorf("Size = %d, want 48", got)
	}
	if off := st.FieldOffset("b"); off != 8 {
		t.Errorf("offset(b) = %d, want 8", off)
	}
	if off := st.FieldOffset("c"); off != 40 {
		t.Errorf("offset(c) = %d, want 40", off)
	}
	if off := st.FieldOffset("zzz"); off != -1 {
		t.Errorf("offset(zzz) = %d, want -1", off)
	}
}

func TestModuleClone(t *testing.T) {
	m := MustParse(sampleSrc)
	c := m.Clone()
	// Mutating the clone must not affect the original.
	c.Func("touch").Entry().Instrs[0].Line = 999
	if m.Func("touch").Entry().Instrs[0].Line == 999 {
		t.Error("Clone shares instruction storage with original")
	}
	if Print(m) == "" || c.NumInstrs() != m.NumInstrs() {
		t.Error("clone differs structurally")
	}
}

func TestBlockSuccs(t *testing.T) {
	m := MustParse(sampleSrc)
	f := m.Func("touch")
	entry := f.Entry()
	succs := entry.Succs()
	if len(succs) != 2 || succs[0] != "pos" || succs[1] != "neg" {
		t.Errorf("entry succs = %v", succs)
	}
	if got := f.Block("pos").Succs(); len(got) != 0 {
		t.Errorf("ret block has succs %v", got)
	}
}
