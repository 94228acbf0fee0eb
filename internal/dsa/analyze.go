package dsa

import (
	"deepmc/internal/callgraph"
	"deepmc/internal/ir"
)

// Options configure the analysis.
type Options struct {
	// FieldSensitive controls whether field paths are tracked.  Disabling
	// it (the ablation in DESIGN.md §6) degrades every access to the
	// whole-object path, mimicking an object-granular alias analysis.
	FieldSensitive bool
	// PersistentAllocFns names external functions whose return value is a
	// freshly allocated persistent object (the paper's "malloc-like
	// functions with persistent annotations").
	PersistentAllocFns []string
}

// DefaultOptions returns the configuration the paper evaluates: field
// sensitivity on.
func DefaultOptions() Options {
	return Options{FieldSensitive: true}
}

// Analysis is the completed three-phase DSA over one module.
type Analysis struct {
	Module *ir.Module
	CG     *callgraph.Graph
	Graphs map[string]*Graph
	Opts   Options

	nextNodeID int
	palloc     map[string]bool
}

// Analyze runs the local, bottom-up and top-down phases over m.
func Analyze(m *ir.Module, opts Options) *Analysis {
	a := &Analysis{
		Module: m,
		CG:     callgraph.New(m),
		Graphs: make(map[string]*Graph, len(m.Funcs)),
		Opts:   opts,
		palloc: make(map[string]bool),
	}
	for _, fn := range opts.PersistentAllocFns {
		a.palloc[fn] = true
	}
	// Phase 1: local graphs, any order (declaration order for determinism).
	for _, name := range m.FuncNames() {
		a.Graphs[name] = a.localPhase(m.Funcs[name])
	}
	// Phase 2: bottom-up inlining, callees first.
	post := a.CG.PostOrder()
	for _, f := range post {
		a.bottomUp(f)
	}
	// Phase 3: top-down flag propagation, callers first.
	for i := len(post) - 1; i >= 0; i-- {
		a.topDown(post[i])
	}
	// Persistence is reachability-closed per graph: anything a persistent
	// object points at lives in NVM too (pmemobj-style reachability).
	for _, name := range m.FuncNames() {
		propagatePersistence(a.Graphs[name])
	}
	// The finished analysis is read concurrently by the parallel checker:
	// flatten every union-find chain to depth one so that Find never
	// path-compresses (writes) again.
	a.flatten()
	return a
}

// flatten fully compresses every node's union-find chain.  No
// unifications happen after Analyze returns, so once every parent
// pointer references its representative directly, Find performs pure
// reads and the whole Analysis is safe for concurrent use.
func (a *Analysis) flatten() {
	for _, g := range a.Graphs {
		for _, n := range g.nodes {
			if r := n.Find(); n.parent != nil {
				n.parent = r
			}
		}
	}
}

// propagatePersistence closes the FlagPersistent property over points-to
// edges until fixpoint.
func propagatePersistence(g *Graph) {
	for changed := true; changed; {
		changed = false
		for _, n := range g.Nodes() {
			if n.Flags&FlagPersistent == 0 {
				continue
			}
			for _, t := range n.Edges {
				tr := t.Find()
				if tr.Flags&FlagPersistent == 0 {
					tr.Flags |= FlagPersistent
					changed = true
				}
			}
		}
	}
}

// Graph returns the function's DSG.
func (a *Analysis) Graph(fn string) *Graph { return a.Graphs[fn] }

// FuncSummary is the serializable digest of one function's finished DSG
// — the shape statistic the content-addressed analysis cache memoizes
// alongside trace sets, so warm pipeline-stats runs need not rebuild
// the graph.
type FuncSummary struct {
	Nodes      int `json:"nodes"`
	Persistent int `json:"persistent"`
}

// FuncSummary digests the named function's DSG (zero value for unknown
// functions).
func (a *Analysis) FuncSummary(fn string) FuncSummary {
	g := a.Graphs[fn]
	if g == nil {
		return FuncSummary{}
	}
	var s FuncSummary
	for _, n := range g.Nodes() {
		s.Nodes++
		if n.Find().Persistent() {
			s.Persistent++
		}
	}
	return s
}

// ---------------------------------------------------------------------------
// Phase 1: local analysis

// localPhase builds the function's local DSG in a single pass — the
// unification discipline makes the transfer functions order-insensitive
// (Steensgaard-style almost-linear construction, kept field-sensitive).
func (a *Analysis) localPhase(f *ir.Function) *Graph {
	g := newGraph(a, f)
	// Pointer-typed parameters get incomplete nodes up front, typed from
	// the signature.
	for _, p := range f.Params {
		if p.Type != nil && p.Type.Kind == ir.KPtr {
			tn := ""
			if p.Type.Elem != nil && p.Type.Elem.Kind == ir.KStruct {
				tn = p.Type.Elem.Name
			}
			n := g.newNode(FlagIncomplete, tn, nil)
			g.Regs[p.Name] = Cell{Obj: n}
		}
	}
	for _, blk := range f.Blocks {
		for i := range blk.Instrs {
			a.localInstr(g, f, blk, i)
		}
	}
	return g
}

// ensurePtr returns the cell of a value, manufacturing an incomplete node
// for registers that are used as pointers before any assignment gave them
// one.
func (g *Graph) ensurePtr(v ir.Value) Cell {
	r, ok := v.(ir.Reg)
	if !ok {
		// A constant used as an address: an opaque unknown object.
		n := g.newNode(FlagIncomplete, "", nil)
		return Cell{Obj: n}
	}
	c := g.Regs[r.Name].Norm()
	if c.Obj == nil {
		c = Cell{Obj: g.newNode(FlagIncomplete, "", nil)}
		g.Regs[r.Name] = c
	}
	return c
}

// valueCell returns the current cell of a value without forcing a node.
func (g *Graph) valueCell(v ir.Value) Cell {
	if r, ok := v.(ir.Reg); ok {
		return g.Regs[r.Name].Norm()
	}
	return Cell{}
}

func (a *Analysis) localInstr(g *Graph, f *ir.Function, blk *ir.Block, idx int) {
	in := &blk.Instrs[idx]
	switch in.Op {
	case ir.OpBin:
		// The assignment idiom (or/add with 0) propagates pointers.
		if (in.Bin == "or" || in.Bin == "add") && len(in.Args) == 2 {
			if c, ok := in.Args[1].(ir.Const); ok && c.Val == 0 {
				if src := g.valueCell(in.Args[0]); src.IsPtr() {
					g.Regs[in.Dst] = g.unifyCells(g.Regs[in.Dst], src)
					return
				}
			}
		}
		// Other arithmetic yields scalars; nothing to record.
	case ir.OpAlloc:
		fl := FlagHeap
		tn := ""
		if in.Type != nil && in.Type.Kind == ir.KStruct {
			tn = in.Type.Name
		}
		if in.Persistent {
			fl |= FlagPersistent
		}
		n := g.newNode(fl, tn, f.Site(in.Line))
		g.Regs[in.Dst] = g.unifyCells(g.Regs[in.Dst], Cell{Obj: n})
	case ir.OpGEP:
		base := g.ensurePtr(in.Args[0])
		field := ""
		if a.Opts.FieldSensitive && !base.Obj.Collapsed() {
			if in.Field != "" {
				field = JoinField(base.Field, in.Field)
			} else {
				field = JoinField(base.Field, "[]")
			}
		}
		g.Regs[in.Dst] = g.unifyCells(g.Regs[in.Dst], Cell{Obj: base.Obj, Field: field})
	case ir.OpLoad:
		p := g.ensurePtr(in.Args[0])
		p.Obj.Find().Ref[p.Field] = true
		if a.loadsPointer(p) {
			t := g.deref(p)
			g.Regs[in.Dst] = g.unifyCells(g.Regs[in.Dst], Cell{Obj: t})
		}
	case ir.OpStore:
		p := g.ensurePtr(in.Args[0])
		p.Obj.Find().Mod[p.Field] = true
		if v := g.valueCell(in.Args[1]); v.IsPtr() {
			t := g.deref(p)
			g.unifyNodes(t, v.Obj)
		}
	case ir.OpFlush, ir.OpTxAdd:
		g.ensurePtr(in.Args[0])
	case ir.OpMemCopy:
		dst := g.ensurePtr(in.Args[0])
		dst.Obj.Find().Mod[dst.Field] = true
		src := g.ensurePtr(in.Args[1])
		src.Obj.Find().Ref[src.Field] = true
	case ir.OpMemSet:
		dst := g.ensurePtr(in.Args[0])
		dst.Obj.Find().Mod[dst.Field] = true
	case ir.OpCall:
		a.localCall(g, f, in)
	case ir.OpRet:
		if len(in.Args) == 1 {
			if v := g.valueCell(in.Args[0]); v.IsPtr() {
				g.RetCell = g.unifyCells(g.RetCell, v)
			}
		}
	}
}

// loadsPointer decides whether a load through the cell yields a pointer.
// When the object's type is known, the field type answers precisely;
// otherwise we conservatively materialize a pointee so later uses connect.
func (a *Analysis) loadsPointer(p Cell) bool {
	obj := p.Obj.Find()
	if obj.TypeName != "" {
		if t := a.Module.Types[obj.TypeName]; t != nil {
			ft := fieldPathType(t, p.Field)
			if ft != nil {
				return ft.Kind == ir.KPtr
			}
		}
	}
	return true
}

// localCall handles externally defined callees during the local phase;
// calls to module functions are resolved bottom-up.
func (a *Analysis) localCall(g *Graph, f *ir.Function, in *ir.Instr) {
	if _, defined := a.Module.Funcs[in.Callee]; defined {
		return
	}
	if in.Dst == "" {
		return
	}
	if a.palloc[in.Callee] {
		n := g.newNode(FlagHeap|FlagPersistent, "", f.Site(in.Line))
		g.Regs[in.Dst] = g.unifyCells(g.Regs[in.Dst], Cell{Obj: n})
		return
	}
	n := g.newNode(FlagExternal|FlagIncomplete, "", f.Site(in.Line))
	g.Regs[in.Dst] = g.unifyCells(g.Regs[in.Dst], Cell{Obj: n})
}

// ---------------------------------------------------------------------------
// Phase 2: bottom-up

// bottomUp inlines every finished callee graph into f's graph, one clone
// per call site (heap cloning = context sensitivity).  Calls within the
// same SCC (recursion) are left opaque, mirroring the paper's bounded
// treatment of recursion.
func (a *Analysis) bottomUp(f *ir.Function) {
	g := a.Graphs[f.Name]
	callerNode := a.CG.Nodes[f.Name]
	for _, site := range callerNode.Calls {
		calleeFn := a.Module.Funcs[site.Callee]
		if calleeFn == nil {
			continue // external; handled locally
		}
		if a.CG.Nodes[site.Callee].SCC == callerNode.SCC && site.Callee != f.Name {
			// Mutual recursion: opaque.
			continue
		}
		if site.Callee == f.Name {
			continue // direct self-recursion: opaque
		}
		calleeG := a.Graphs[site.Callee]
		mapping := g.cloneFrom(calleeG)
		g.CallMaps[site.Ref] = mapping
		// Unify formals with actuals.
		in := instrAt(f, site.Ref)
		for i, param := range calleeFn.Params {
			if i >= len(in.Args) {
				break
			}
			pc := calleeG.Regs[param.Name].Norm()
			if pc.Obj == nil {
				continue
			}
			mapped := Cell{Obj: mapping[pc.Obj].Find(), Field: pc.Field}
			if ac := g.valueCell(in.Args[i]); ac.IsPtr() {
				g.unifyCells(mapped, ac)
			} else if r, ok := in.Args[i].(ir.Reg); ok {
				g.Regs[r.Name] = g.unifyCells(g.Regs[r.Name], mapped)
			}
		}
		// Unify the return value.
		if in.Dst != "" {
			rc := calleeG.RetCell.Norm()
			if rc.Obj != nil {
				mapped := Cell{Obj: mapping[rc.Obj].Find(), Field: rc.Field}
				g.Regs[in.Dst] = g.unifyCells(g.Regs[in.Dst], mapped)
			}
		}
	}
}

// cloneFrom deep-copies the callee graph's nodes into g and returns the
// mapping from every callee node (reps and non-reps) to its caller clone.
func (g *Graph) cloneFrom(callee *Graph) map[*Node]*Node {
	mapping := make(map[*Node]*Node, len(callee.nodes))
	// First pass: allocate clones of representatives.
	for _, n := range callee.nodes {
		r := n.Find()
		if _, done := mapping[r]; !done {
			c := g.newNode(r.Flags, r.TypeName, nil)
			c.Sites = append(c.Sites, r.Sites...)
			for f := range r.Mod {
				c.Mod[f] = true
			}
			for f := range r.Ref {
				c.Ref[f] = true
			}
			mapping[r] = c
		}
		mapping[n] = mapping[r]
	}
	// Second pass: connect edges through the mapping.
	for _, n := range callee.nodes {
		r := n.Find()
		c := mapping[r].Find()
		for f, t := range r.Edges {
			tc := mapping[t.Find()].Find()
			if cur, ok := c.Edges[f]; ok {
				g.unifyNodes(cur, tc)
			} else {
				c.Edges[f] = tc
			}
		}
	}
	return mapping
}

// instrAt fetches the instruction a call-site reference points at.
func instrAt(f *ir.Function, ref ir.InstrRef) *ir.Instr {
	blk := f.Block(ref.Block)
	return &blk.Instrs[ref.Index]
}

// ---------------------------------------------------------------------------
// Phase 3: top-down

// topDown pushes caller knowledge (persistence, type names) down into
// callee graphs through each call site's clone mapping, so that a callee
// analyzed standalone still knows, e.g., that its mutex parameter lives in
// NVM (the nvm_lock example of Figure 10).
func (a *Analysis) topDown(f *ir.Function) {
	g := a.Graphs[f.Name]
	// Close persistence over this graph first, so flags pushed down below
	// include objects reachable from persistent roots in this context.
	propagatePersistence(g)
	callerNode := a.CG.Nodes[f.Name]
	for _, site := range callerNode.Calls {
		mapping := g.CallMaps[site.Ref]
		if mapping == nil {
			continue
		}
		// Iterate the mapping in node-id order: when several clones offer
		// a type name for the same callee node, the winner must not depend
		// on map iteration order.
		origs := make([]*Node, 0, len(mapping))
		for orig := range mapping {
			origs = append(origs, orig)
		}
		sortNodesByID(origs)
		for _, orig := range origs {
			clone := mapping[orig]
			or, cr := orig.Find(), clone.Find()
			if cr.Flags&FlagPersistent != 0 && or.Flags&FlagPersistent == 0 {
				or.Flags |= FlagPersistent
			}
			if or.TypeName == "" && cr.TypeName != "" {
				or.TypeName = cr.TypeName
			}
		}
	}
}
