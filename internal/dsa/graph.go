package dsa

import (
	"sort"

	"deepmc/internal/ir"
)

// Graph is the Data Structure Graph of one function.
type Graph struct {
	Fn *ir.Function

	// Regs maps every register (including parameters) to its cell.
	Regs map[string]Cell
	// RetCell is the unified cell of all return values.
	RetCell Cell
	// CallMaps maps each call site to the clone mapping produced by the
	// bottom-up phase: callee-graph node → caller-graph node.  The trace
	// merger uses it to translate callee locations into caller context.
	CallMaps map[ir.InstrRef]map[*Node]*Node

	analysis *Analysis
	nextID   *int
	nodes    []*Node
}

func newGraph(a *Analysis, fn *ir.Function) *Graph {
	return &Graph{
		Fn:       fn,
		Regs:     make(map[string]Cell),
		CallMaps: make(map[ir.InstrRef]map[*Node]*Node),
		analysis: a,
		nextID:   &a.nextNodeID,
	}
}

// newNode allocates a fresh node in this graph.
func (g *Graph) newNode(flags Flags, typeName string, site *ir.Site) *Node {
	*g.nextID++
	n := &Node{
		id:       *g.nextID,
		Flags:    flags,
		TypeName: typeName,
		Edges:    make(map[string]*Node),
		Mod:      make(map[string]bool),
		Ref:      make(map[string]bool),
	}
	if site != nil {
		n.Sites = append(n.Sites, site)
	}
	g.nodes = append(g.nodes, n)
	return n
}

// Nodes returns the distinct representative nodes of the graph, sorted by
// id for determinism.
func (g *Graph) Nodes() []*Node {
	seen := make(map[*Node]bool)
	var out []*Node
	for _, n := range g.nodes {
		r := n.Find()
		if !seen[r] {
			seen[r] = true
			out = append(out, r)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].id < out[j].id })
	return out
}

// RegCell returns the normalized cell of a register, or a scalar cell.
func (g *Graph) RegCell(name string) Cell {
	return g.Regs[name].Norm()
}

// unifyNodes merges two nodes' union-find classes, merging flags, type
// names, edges and mod/ref sets.  Conflicting non-empty type names
// collapse the result.
func (g *Graph) unifyNodes(a, b *Node) *Node {
	a, b = a.Find(), b.Find()
	if a == b {
		return a
	}
	// Keep the lower id as representative for determinism.
	if b.id < a.id {
		a, b = b, a
	}
	b.parent = a
	a.Flags |= b.Flags
	switch {
	case a.TypeName == "":
		a.TypeName = b.TypeName
	case b.TypeName != "" && b.TypeName != a.TypeName:
		a.Flags |= FlagCollapsed
	}
	for f, v := range b.Mod {
		a.Mod[f] = v
	}
	for f, v := range b.Ref {
		a.Ref[f] = v
	}
	a.Sites = append(a.Sites, b.Sites...)
	// Merge edges; same-field targets unify recursively.
	for f, t := range b.Edges {
		if cur, ok := a.Edges[f]; ok {
			g.unifyNodes(cur, t)
		} else {
			a.Edges[f] = t
		}
	}
	b.Edges = nil
	if a.Flags&FlagCollapsed != 0 {
		g.collapseFields(a)
	}
	return a
}

// collapseFields folds all field-specific information of a collapsed node
// into the whole-object path.
func (g *Graph) collapseFields(n *Node) {
	n = n.Find()
	if len(n.Edges) > 0 {
		var merged *Node
		for _, t := range n.Edges {
			if merged == nil {
				merged = t
			} else {
				merged = g.unifyNodes(merged, t)
			}
		}
		n = n.Find() // unification above may have changed the rep
		n.Edges = map[string]*Node{"": merged.Find()}
	}
	if len(n.Mod) > 0 {
		n.Mod = map[string]bool{"": true}
	}
	if len(n.Ref) > 0 {
		n.Ref = map[string]bool{"": true}
	}
}

// unifyCells merges two cells.  Pointer-pointer unification merges the
// objects; mismatched field paths collapse the object.
func (g *Graph) unifyCells(a, b Cell) Cell {
	a, b = a.Norm(), b.Norm()
	switch {
	case a.Obj == nil:
		return b
	case b.Obj == nil:
		return a
	}
	n := g.unifyNodes(a.Obj, b.Obj)
	f := a.Field
	if a.Field != b.Field {
		n.SetFlag(FlagCollapsed)
		g.collapseFields(n)
		f = ""
	}
	return Cell{Obj: n.Find(), Field: f}
}

// deref returns (creating on demand) the object the given cell's pointer
// field points at.  On-demand pointees inherit the parent's persistence:
// in the NVM frameworks under study, pointers stored in persistent objects
// reference other persistent objects (pmemobj-style reachability).
func (g *Graph) deref(c Cell) *Node {
	c = c.Norm()
	if c.Obj == nil {
		// Dereferencing an unknown scalar: manufacture an incomplete node
		// so downstream queries stay total.
		return g.newNode(FlagIncomplete, "", nil)
	}
	obj := c.Obj.Find()
	if t, ok := obj.Edges[c.Field]; ok {
		return t.Find()
	}
	var fl Flags = FlagIncomplete
	if obj.Flags&FlagPersistent != 0 {
		fl |= FlagPersistent
	}
	t := g.newNode(fl, g.pointeeTypeName(obj, c.Field), nil)
	obj.Edges[c.Field] = t
	return t
}

// pointeeTypeName resolves the struct type a pointer field points at, if
// the module's type table knows it.
func (g *Graph) pointeeTypeName(obj *Node, field string) string {
	if obj.TypeName == "" || field == "" {
		return ""
	}
	t := g.analysis.Module.Types[obj.TypeName]
	if t == nil {
		return ""
	}
	ft := fieldPathType(t, field)
	if ft != nil && ft.Kind == ir.KPtr && ft.Elem != nil && ft.Elem.Kind == ir.KStruct {
		return ft.Elem.Name
	}
	return ""
}

// fieldPathType walks a dotted field path (with "[]" array steps) through
// a struct type.
func fieldPathType(t *ir.Type, path string) *ir.Type {
	if path == "" {
		return t
	}
	for _, comp := range splitPath(path) {
		if t == nil {
			return nil
		}
		if comp == "[]" {
			if t.Kind != ir.KArray {
				return nil
			}
			t = t.Elem
			continue
		}
		if t.Kind != ir.KStruct {
			return nil
		}
		t = t.FieldType(comp)
	}
	return t
}

func splitPath(path string) []string {
	if path == "" {
		return nil
	}
	var out []string
	start := 0
	for i := 0; i < len(path); i++ {
		if path[i] == '.' {
			out = append(out, path[start:i])
			start = i + 1
		}
	}
	out = append(out, path[start:])
	return out
}
