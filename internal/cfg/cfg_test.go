package cfg

import (
	"reflect"
	"testing"

	"deepmc/internal/ir"
)

const loopSrc = `
module m

func straight() {
	fence
	ret
}

func diamond(c) {
	condbr %c, left, right
left:
	br join
right:
	br join
join:
	ret
}

func looped(n) {
	%i = const 0
	br head
head:
	%cond = lt %i, %n
	condbr %cond, body, exit
body:
	%i = add %i, 1
	br head
exit:
	ret
}

func nested(n) {
	%i = const 0
	br outer
outer:
	%c1 = lt %i, %n
	condbr %c1, inner, done
inner:
	%j = const 0
	br ihead
ihead:
	%c2 = lt %j, %n
	condbr %c2, ibody, iexit
ibody:
	%j = add %j, 1
	br ihead
iexit:
	%i = add %i, 1
	br outer
done:
	ret
}

func dangling() {
	br nowhere
}
`

func mustGraph(t *testing.T, m *ir.Module, fn string) *Graph {
	t.Helper()
	g, err := New(m.Func(fn))
	if err != nil {
		t.Fatalf("New(%s): %v", fn, err)
	}
	return g
}

// succNames renders a node's successors as block names, in edge order.
func succNames(n *Node) []string {
	var out []string
	for _, s := range n.Succs {
		out = append(out, s.Block.Name)
	}
	return out
}

// checkSuccs compares every node's successors against want, keyed by
// block name, and requires the nodes to be in block order.
func checkSuccs(t *testing.T, g *Graph, f *ir.Function, want map[string][]string) {
	t.Helper()
	if len(g.Nodes) != len(f.Blocks) || len(want) != len(f.Blocks) {
		t.Fatalf("%d nodes for %d blocks (%d expected)", len(g.Nodes), len(f.Blocks), len(want))
	}
	for i, n := range g.Nodes {
		if n.Block != f.Blocks[i] {
			t.Errorf("node %d is block %s, want %s", i, n.Block.Name, f.Blocks[i].Name)
		}
		if got := succNames(n); !reflect.DeepEqual(got, want[n.Block.Name]) {
			t.Errorf("%s succs = %v, want %v", n.Block.Name, got, want[n.Block.Name])
		}
	}
}

func TestEdges(t *testing.T) {
	m := ir.MustParse(loopSrc)
	g := mustGraph(t, m, "diamond")
	if g.Entry() != g.Nodes[0] {
		t.Error("entry must be the first node")
	}
	checkSuccs(t, g, m.Func("diamond"), map[string][]string{
		"entry": {"left", "right"}, "left": {"join"}, "right": {"join"}, "join": nil,
	})
}

// TestNaturalLoops: a loop's back edge is an ordinary successor edge,
// which the trace collector bounds with its per-path visit cap.
func TestNaturalLoops(t *testing.T) {
	m := ir.MustParse(loopSrc)
	checkSuccs(t, mustGraph(t, m, "looped"), m.Func("looped"), map[string][]string{
		"entry": {"head"}, "head": {"body", "exit"}, "body": {"head"}, "exit": nil,
	})
}

func TestNestedLoops(t *testing.T) {
	m := ir.MustParse(loopSrc)
	checkSuccs(t, mustGraph(t, m, "nested"), m.Func("nested"), map[string][]string{
		"entry": {"outer"}, "outer": {"inner", "done"}, "inner": {"ihead"},
		"ihead": {"ibody", "iexit"}, "ibody": {"ihead"}, "iexit": {"outer"}, "done": nil,
	})
}

func TestStraightLine(t *testing.T) {
	m := ir.MustParse(loopSrc)
	g := mustGraph(t, m, "straight")
	if len(g.Nodes) != 1 || g.Entry() != g.Nodes[0] || len(g.Entry().Succs) != 0 {
		t.Errorf("straight-line CFG wrong: %d nodes", len(g.Nodes))
	}
}

func TestUnknownBranchTarget(t *testing.T) {
	m := ir.MustParse(loopSrc)
	if _, err := New(m.Func("dangling")); err == nil {
		t.Fatal("a branch to a missing block must fail")
	}
}
