package callgraph

import (
	"testing"

	"deepmc/internal/ir"
)

const cgSrc = `
module m

func leaf(x) int {
	ret %x
}

func mid(x) int {
	%a = call leaf(%x)
	%b = call external_fn(%a)
	ret %a
}

func top(x) {
	%r = call mid(%x)
	%s = call leaf(%r)
	ret
}

func selfrec(x) int {
	%c = gt %x, 0
	condbr %c, rec, base
rec:
	%y = sub %x, 1
	%r = call selfrec(%y)
	ret %r
base:
	ret %x
}

func mutA(x) {
	call mutB(%x)
	ret
}

func mutB(x) {
	call mutA(%x)
	ret
}
`

func TestEdgesAndExternals(t *testing.T) {
	g := New(ir.MustParse(cgSrc))
	mid := g.Nodes["mid"]
	if len(mid.Calls) != 2 {
		t.Fatalf("mid has %d call sites, want 2", len(mid.Calls))
	}
	if len(mid.Outs) != 1 || mid.Outs[0].Func.Name != "leaf" {
		t.Errorf("mid outs wrong: %v", mid.Outs)
	}
	if len(g.External) != 1 || g.External[0] != "external_fn" {
		t.Errorf("externals = %v", g.External)
	}
	if ins := g.Nodes["leaf"].Ins; len(ins) != 2 || ins[0].Func.Name != "mid" || ins[1].Func.Name != "top" {
		t.Errorf("leaf ins wrong: %v", ins)
	}
}

func TestPostOrder(t *testing.T) {
	g := New(ir.MustParse(cgSrc))
	order := g.PostOrder()
	pos := map[string]int{}
	for i, f := range order {
		pos[f.Name] = i
	}
	if len(order) != 6 {
		t.Fatalf("post-order has %d functions, want 6", len(order))
	}
	if pos["leaf"] >= pos["mid"] || pos["mid"] >= pos["top"] {
		t.Errorf("callees must precede callers: %v", pos)
	}
}

func TestRecursionDetection(t *testing.T) {
	g := New(ir.MustParse(cgSrc))
	if sr := g.Nodes["selfrec"]; len(sr.Outs) != 1 || sr.Outs[0] != sr {
		t.Errorf("selfrec must be its own only callee: %v", sr.Outs)
	}
	if g.Nodes["mutA"].SCC != g.Nodes["mutB"].SCC {
		t.Error("mutA and mutB must share an SCC")
	}
	if g.Nodes["leaf"].SCC == g.Nodes["mid"].SCC {
		t.Error("leaf and mid must not share an SCC")
	}
}

func TestRoots(t *testing.T) {
	g := New(ir.MustParse(cgSrc))
	roots := g.Roots()
	names := map[string]bool{}
	for _, f := range roots {
		names[f.Name] = true
	}
	if !names["top"] {
		t.Error("top must be a root")
	}
	if names["leaf"] || names["mid"] {
		t.Error("called functions must not be roots")
	}
}
