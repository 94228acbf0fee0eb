// Package cfg builds the control flow graph of a PIR function: one node
// per basic block with its successor edges, the graph the trace
// collector walks.  This corresponds to step ① of the paper's Figure 8,
// where LLVM CFGs feed the trace collector.
package cfg

import (
	"fmt"

	"deepmc/internal/ir"
)

// Node is one basic block plus its successor edges.
type Node struct {
	Block *ir.Block
	Succs []*Node
}

// Graph is the control flow graph of one function.
type Graph struct {
	Nodes []*Node // in block order; the entry block is first
}

// New builds the CFG of f.  It fails if a branch targets a block that does
// not exist (the IR verifier catches this earlier with a better message).
func New(f *ir.Function) (*Graph, error) {
	g := &Graph{Nodes: make([]*Node, len(f.Blocks))}
	byName := make(map[string]*Node, len(f.Blocks))
	for i, b := range f.Blocks {
		g.Nodes[i] = &Node{Block: b}
		byName[b.Name] = g.Nodes[i]
	}
	for _, n := range g.Nodes {
		for _, succ := range n.Block.Succs() {
			sn := byName[succ]
			if sn == nil {
				return nil, fmt.Errorf("cfg: %s: branch to unknown block %q", f.Name, succ)
			}
			n.Succs = append(n.Succs, sn)
		}
	}
	return g, nil
}

// Entry returns the entry node, or nil for an empty function.
func (g *Graph) Entry() *Node {
	if len(g.Nodes) == 0 {
		return nil
	}
	return g.Nodes[0]
}
