// Package dsa implements Data Structure Analysis for PIR modules: a
// unification-based, field-sensitive, context-sensitive points-to analysis
// in the style of Lattner, Lenharth and Adve (PLDI'07), extended — as the
// DeepMC paper describes in §4.2 — to track which objects live in
// persistent memory and which fields of each object are modified (mod) or
// read (ref).
//
// The analysis runs in the paper's three phases:
//
//  1. Local: each function gets a local Data Structure Graph (DSG) built
//     from its own instructions.
//  2. Bottom-Up: the call graph is traversed callees-first; at every call
//     site the callee's finished graph is cloned into the caller (heap
//     cloning gives context sensitivity) and formals are unified with
//     actuals.
//  3. Top-Down: caller knowledge (persistence, types) is pushed back down
//     into callee graphs through the per-call-site clone mappings.
//
// The static checker and the trace collector consume the result: every
// register of every function maps to an abstract memory cell
// (object node, field path), and the per-call-site mappings let the trace
// merger translate callee locations into caller context.
package dsa

import (
	"fmt"
	"sort"
	"strings"

	"deepmc/internal/ir"
)

// Flags describe properties of a DSG node.
type Flags uint16

const (
	// FlagHeap marks nodes from alloc/palloc sites.
	FlagHeap Flags = 1 << iota
	// FlagPersistent marks objects allocated from (or reachable in) NVM.
	FlagPersistent
	// FlagIncomplete marks nodes whose callers/callees may add more
	// information (parameters, external call results).
	FlagIncomplete
	// FlagCollapsed marks nodes whose field structure was lost to a
	// conflicting unification; all field paths degrade to "".
	FlagCollapsed
	// FlagExternal marks nodes returned by functions not defined in the
	// module.
	FlagExternal
)

// Node is one object in a Data Structure Graph.  Nodes form a union-find
// forest: always call Find before reading fields.
type Node struct {
	id     int
	parent *Node // union-find; nil at representative

	Flags    Flags
	TypeName string // struct type name, "" if unknown or scalar
	// Edges maps a field path of this object to the object its pointer
	// field points at (whole-object targets, as in classic DSA).
	Edges map[string]*Node
	// Mod and Ref record which field paths are written / read.  The empty
	// path "" denotes the whole object (e.g. memset, whole-object flush).
	Mod map[string]bool
	Ref map[string]bool
	// Sites lists where this object is allocated or introduced.
	Sites []*ir.Site
}

// Find returns the representative of the node's union-find class, with
// path compression.
func (n *Node) Find() *Node {
	for n.parent != nil {
		if n.parent.parent != nil {
			n.parent = n.parent.parent
		}
		n = n.parent
	}
	return n
}

// ID returns a stable identifier of the representative.
func (n *Node) ID() int { return n.Find().id }

// Is reports whether the representative carries the flag.
func (n *Node) Is(f Flags) bool { return n.Find().Flags&f != 0 }

// Persistent reports whether the object lives in persistent memory.
func (n *Node) Persistent() bool { return n.Is(FlagPersistent) }

// Collapsed reports whether field structure was lost.
func (n *Node) Collapsed() bool { return n.Is(FlagCollapsed) }

// SetFlag sets a flag on the representative.
func (n *Node) SetFlag(f Flags) { n.Find().Flags |= f }

// String renders the node for diagnostics.
func (n *Node) String() string {
	r := n.Find()
	var parts []string
	if r.TypeName != "" {
		parts = append(parts, r.TypeName)
	}
	if r.Flags&FlagPersistent != 0 {
		parts = append(parts, "persistent")
	}
	if r.Flags&FlagHeap != 0 {
		parts = append(parts, "heap")
	}
	if r.Flags&FlagCollapsed != 0 {
		parts = append(parts, "collapsed")
	}
	if r.Flags&FlagIncomplete != 0 {
		parts = append(parts, "incomplete")
	}
	return fmt.Sprintf("n%d{%s}", r.id, strings.Join(parts, " "))
}

// ModFields returns the sorted modified field paths.
func (n *Node) ModFields() []string { return sortedKeys(n.Find().Mod) }

// RefFields returns the sorted read field paths.
func (n *Node) RefFields() []string { return sortedKeys(n.Find().Ref) }

// sortNodesByID orders nodes by their raw allocation id.  Ids are
// assigned in deterministic allocation order, so this gives a stable
// iteration order for node sets collected from maps.
func sortNodesByID(ns []*Node) {
	sort.Slice(ns, func(i, j int) bool { return ns[i].id < ns[j].id })
}

func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Cell is an abstract memory location: a pointer into Obj at the given
// field path ("" = the object base).  A Cell with nil Obj is a scalar.
type Cell struct {
	Obj   *Node
	Field string
}

// IsPtr reports whether the cell refers to an object.
func (c Cell) IsPtr() bool { return c.Obj != nil }

// Norm returns the cell with its object normalized to the representative
// and the field cleared if the object collapsed.
func (c Cell) Norm() Cell {
	if c.Obj == nil {
		return c
	}
	r := c.Obj.Find()
	f := c.Field
	if r.Flags&FlagCollapsed != 0 {
		f = ""
	}
	return Cell{Obj: r, Field: f}
}

// String renders the cell for diagnostics.
func (c Cell) String() string {
	if c.Obj == nil {
		return "<scalar>"
	}
	if c.Field == "" {
		return c.Obj.String()
	}
	return c.Obj.String() + "." + c.Field
}

// JoinField appends a field component to a field path.
func JoinField(base, f string) string {
	if base == "" {
		return f
	}
	return base + "." + f
}
