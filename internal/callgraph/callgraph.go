// Package callgraph builds the call graph of a PIR module and provides the
// traversals the DeepMC pipeline needs: Tarjan strongly-connected
// components (to bound recursion) and post-order over the SCC condensation
// (the "visit callees before callers" order both the DSA bottom-up phase
// and the interprocedural trace merge require — step ① of Figure 8).
package callgraph

import (
	"sort"

	"deepmc/internal/ir"
)

// CallSite records a single call instruction.
type CallSite struct {
	Caller *ir.Function
	Callee string // callee name; may be external (not defined in module)
	Ref    ir.InstrRef
	Line   int
}

// Node is one function in the call graph.
type Node struct {
	Func  *ir.Function
	Index int        // position in the module's declaration order (FuncNames)
	Calls []CallSite // outgoing call sites in program order
	Outs  []*Node    // unique callee nodes defined in the module
	Ins   []*Node    // unique caller nodes
	SCC   int        // SCC id; assigned by Tarjan, -1 before
}

// Graph is a module's call graph.
type Graph struct {
	Module *ir.Module
	Nodes  map[string]*Node
	// External lists callee names referenced but not defined in the module
	// (the paper tracks such functions only if annotated; the analyses
	// treat them as opaque).
	External []string

	sccCount int
	sccOrder [][]*Node // SCCs in reverse topological order (callees first)
}

// New builds the call graph of m.
func New(m *ir.Module) *Graph {
	names := m.FuncNames()
	g := &Graph{Module: m, Nodes: make(map[string]*Node, len(names))}
	nodes := make([]Node, len(names))
	for i, name := range names {
		nodes[i] = Node{Func: m.Funcs[name], Index: i, SCC: -1}
		g.Nodes[name] = &nodes[i]
	}
	// linked[c] is 1 + the index of the last caller that linked callee
	// c, so each caller links each callee once.
	linked := make([]int, len(nodes))
	extSeen := make(map[string]bool)
	for i := range nodes {
		n := &nodes[i]
		f := n.Func
		for _, blk := range f.Blocks {
			for j := range blk.Instrs {
				in := &blk.Instrs[j]
				if in.Op != ir.OpCall {
					continue
				}
				n.Calls = append(n.Calls, CallSite{
					Caller: f,
					Callee: in.Callee,
					Ref:    ir.InstrRef{Func: f.Name, Block: blk.Name, Index: j},
					Line:   in.Line,
				})
				callee, ok := g.Nodes[in.Callee]
				if !ok {
					if !extSeen[in.Callee] {
						extSeen[in.Callee] = true
						g.External = append(g.External, in.Callee)
					}
					continue
				}
				if linked[callee.Index] != i+1 {
					linked[callee.Index] = i + 1
					n.Outs = append(n.Outs, callee)
					callee.Ins = append(callee.Ins, n)
				}
			}
		}
	}
	sort.Strings(g.External)
	g.tarjan(nodes)
	return g
}

// tarjan assigns SCC ids and builds sccOrder (callees before callers).
// Tarjan's algorithm emits SCCs in reverse topological order of the
// condensation, which is exactly the order we want.  nodes is in
// declaration order.
func (g *Graph) tarjan(nodes []Node) {
	index := 0
	// indices[i] is 1 + node i's visit index (0: unvisited).
	indices := make([]int, len(nodes))
	lowlink := make([]int, len(nodes))
	onStack := make([]bool, len(nodes))
	var stack []*Node

	var strongconnect func(v *Node)
	strongconnect = func(v *Node) {
		index++
		indices[v.Index] = index
		lowlink[v.Index] = index
		stack = append(stack, v)
		onStack[v.Index] = true
		for _, w := range v.Outs {
			if indices[w.Index] == 0 {
				strongconnect(w)
				if lowlink[w.Index] < lowlink[v.Index] {
					lowlink[v.Index] = lowlink[w.Index]
				}
			} else if onStack[w.Index] && indices[w.Index] < lowlink[v.Index] {
				lowlink[v.Index] = indices[w.Index]
			}
		}
		if lowlink[v.Index] == indices[v.Index] {
			var scc []*Node
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w.Index] = false
				w.SCC = g.sccCount
				scc = append(scc, w)
				if w == v {
					break
				}
			}
			g.sccCount++
			g.sccOrder = append(g.sccOrder, scc)
		}
	}
	// Visit in declaration order for determinism.
	for i := range nodes {
		if indices[i] == 0 {
			strongconnect(&nodes[i])
		}
	}
}

// PostOrder returns all functions so that (except within recursion cycles)
// every callee precedes its callers.  Within one SCC, functions appear in
// module declaration order for determinism.
func (g *Graph) PostOrder() []*ir.Function {
	var out []*ir.Function
	for _, scc := range g.sccOrder {
		sorted := append([]*Node(nil), scc...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i].Func.Name < sorted[j].Func.Name })
		for _, n := range sorted {
			out = append(out, n.Func)
		}
	}
	return out
}

// Waves groups the SCCs of the condensation into dependency levels for
// parallel scheduling: every callee SCC of a wave-k member lies in a
// wave strictly before k, so all SCCs of one wave can be processed
// concurrently once the previous waves are done.  Wave membership and
// the order of SCCs within a wave are deterministic: within each SCC,
// functions appear in module declaration order, and SCCs within a wave
// are ordered by the declaration index of their first function.
func (g *Graph) Waves() [][][]*ir.Function {
	declIdx := make(map[string]int, len(g.Nodes))
	for i, name := range g.Module.FuncNames() {
		declIdx[name] = i
	}
	level := make([]int, g.sccCount)
	var waves [][][]*ir.Function
	// sccOrder is reverse topological (callees first), so every callee
	// SCC already has its level when its callers are visited.
	for _, scc := range g.sccOrder {
		id := scc[0].SCC
		lv := 0
		for _, n := range scc {
			for _, o := range n.Outs {
				if o.SCC == id {
					continue // intra-SCC edge (recursion)
				}
				if l := level[o.SCC] + 1; l > lv {
					lv = l
				}
			}
		}
		level[id] = lv
		fs := make([]*ir.Function, 0, len(scc))
		for _, n := range scc {
			fs = append(fs, n.Func)
		}
		sort.Slice(fs, func(i, j int) bool { return declIdx[fs[i].Name] < declIdx[fs[j].Name] })
		for len(waves) <= lv {
			waves = append(waves, nil)
		}
		waves[lv] = append(waves[lv], fs)
	}
	for _, w := range waves {
		w := w
		sort.Slice(w, func(i, j int) bool { return declIdx[w[i][0].Name] < declIdx[w[j][0].Name] })
	}
	return waves
}

// SCCs returns the strongly connected components, callees first.
func (g *Graph) SCCs() [][]*ir.Function {
	out := make([][]*ir.Function, 0, len(g.sccOrder))
	for _, scc := range g.sccOrder {
		fs := make([]*ir.Function, 0, len(scc))
		for _, n := range scc {
			fs = append(fs, n.Func)
		}
		out = append(out, fs)
	}
	return out
}

// Roots returns functions never called within the module (entry points),
// in declaration order.
func (g *Graph) Roots() []*ir.Function {
	var roots []*ir.Function
	for _, name := range g.Module.FuncNames() {
		if len(g.Nodes[name].Ins) == 0 {
			roots = append(roots, g.Nodes[name].Func)
		}
	}
	return roots
}
