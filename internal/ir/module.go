package ir

import (
	"fmt"
	"sort"
	"sync"
)

// Block is a basic block: a label plus a straight-line instruction list
// ending in a terminator.
type Block struct {
	Name   string
	Instrs []Instr
}

// Terminator returns the block's final instruction, or nil if the block is
// empty or does not end in a terminator (a verifier error).
func (b *Block) Terminator() *Instr {
	if len(b.Instrs) == 0 {
		return nil
	}
	in := &b.Instrs[len(b.Instrs)-1]
	if !in.Op.IsTerminator() {
		return nil
	}
	return in
}

// Succs returns the names of the blocks this block can branch to.
func (b *Block) Succs() []string {
	t := b.Terminator()
	if t == nil {
		return nil
	}
	switch t.Op {
	case OpBr:
		return []string{t.Labels[0]}
	case OpCondBr:
		if t.Labels[0] == t.Labels[1] {
			return []string{t.Labels[0]}
		}
		return []string{t.Labels[0], t.Labels[1]}
	}
	return nil
}

// Param is a function parameter: a register name plus an optional type.
// Pointer-typed parameters participate in the points-to analysis.
type Param struct {
	Name string
	Type *Type // nil means int
}

// Function is a PIR function.
type Function struct {
	Name    string
	File    string // original source file (ground-truth anchor)
	Params  []Param
	RetType *Type // nil means no return value or int
	Blocks  []*Block

	blockIdx map[string]*Block

	sitesOnce sync.Once
	sites     map[int]*Site
}

// Site is one source location: a function, its source file and a line.
// A function hands out one *Site per line (Function.Site), so runtime
// hooks, trace entries and race records carry a pointer, and the
// location becomes text only when a finding or log line is rendered.
type Site struct {
	Func string
	File string
	Line int
}

// String renders the site as "fn file:line", the form fault and delay
// logs print.
func (s *Site) String() string { return fmt.Sprintf("%s %s:%d", s.Func, s.File, s.Line) }

// Site returns the function's site for a source line.  The table is
// built on first use rather than by the parser, which most parsed
// modules never need, and it is built once even when concurrent workers
// reach it together.  A line no instruction carries gets a fresh site.
func (f *Function) Site(line int) *Site {
	f.sitesOnce.Do(func() {
		f.sites = make(map[int]*Site)
		for _, b := range f.Blocks {
			for i := range b.Instrs {
				if l := b.Instrs[i].Line; f.sites[l] == nil {
					f.sites[l] = &Site{Func: f.Name, File: f.File, Line: l}
				}
			}
		}
	})
	if s := f.sites[line]; s != nil {
		return s
	}
	return &Site{Func: f.Name, File: f.File, Line: line}
}

// Block returns the named block, or nil.
func (f *Function) Block(name string) *Block {
	if f.blockIdx == nil {
		f.reindex()
	}
	return f.blockIdx[name]
}

// Entry returns the function's entry block (the first one), or nil.
func (f *Function) Entry() *Block {
	if len(f.Blocks) == 0 {
		return nil
	}
	return f.Blocks[0]
}

func (f *Function) reindex() {
	f.blockIdx = make(map[string]*Block, len(f.Blocks))
	for _, b := range f.Blocks {
		f.blockIdx[b.Name] = b
	}
}

// AddBlock appends a block and keeps the index current.
func (f *Function) AddBlock(b *Block) {
	f.Blocks = append(f.Blocks, b)
	if f.blockIdx == nil {
		f.reindex()
	} else {
		f.blockIdx[b.Name] = b
	}
}

// NumInstrs returns the total instruction count across all blocks.
func (f *Function) NumInstrs() int {
	n := 0
	for _, b := range f.Blocks {
		n += len(b.Instrs)
	}
	return n
}

// Module is a compilation unit: named struct types plus functions.
type Module struct {
	Name  string
	Types map[string]*Type
	Funcs map[string]*Function

	typeOrder []string
	funcOrder []string
}

// NewModule creates an empty module.
func NewModule(name string) *Module {
	return &Module{
		Name:  name,
		Types: make(map[string]*Type),
		Funcs: make(map[string]*Function),
	}
}

// AddType registers a named struct type.  Re-registering the same name
// replaces the previous definition.
func (m *Module) AddType(t *Type) *Type {
	if t.Kind != KStruct || t.Name == "" {
		panic("ir: AddType requires a named struct type")
	}
	if _, ok := m.Types[t.Name]; !ok {
		m.typeOrder = append(m.typeOrder, t.Name)
	}
	m.Types[t.Name] = t
	return t
}

// AddFunc registers a function.
func (m *Module) AddFunc(f *Function) *Function {
	if _, ok := m.Funcs[f.Name]; !ok {
		m.funcOrder = append(m.funcOrder, f.Name)
	}
	m.Funcs[f.Name] = f
	return f
}

// TypeNames returns the struct type names in declaration order.
func (m *Module) TypeNames() []string {
	return append([]string(nil), m.typeOrder...)
}

// FuncNames returns function names in declaration order.
func (m *Module) FuncNames() []string {
	if len(m.funcOrder) == len(m.Funcs) {
		return append([]string(nil), m.funcOrder...)
	}
	// Fallback for modules assembled without AddFunc.
	names := make([]string, 0, len(m.Funcs))
	for n := range m.Funcs {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Func returns the named function, or nil.
func (m *Module) Func(name string) *Function { return m.Funcs[name] }

// NumInstrs returns the total instruction count of the module.
func (m *Module) NumInstrs() int {
	n := 0
	for _, f := range m.Funcs {
		n += f.NumInstrs()
	}
	return n
}

// Clone returns a deep copy of the module.  Instruction slices are copied;
// Types are shared (they are immutable once built).
func (m *Module) Clone() *Module {
	c := NewModule(m.Name)
	for _, tn := range m.TypeNames() {
		c.AddType(m.Types[tn])
	}
	for _, fn := range m.FuncNames() {
		f := m.Funcs[fn]
		nf := &Function{
			Name:    f.Name,
			File:    f.File,
			Params:  append([]Param(nil), f.Params...),
			RetType: f.RetType,
		}
		for _, b := range f.Blocks {
			nb := &Block{Name: b.Name, Instrs: make([]Instr, len(b.Instrs))}
			for i, in := range b.Instrs {
				ni := in
				ni.Args = append([]Value(nil), in.Args...)
				nb.Instrs[i] = ni
			}
			nf.AddBlock(nb)
		}
		c.AddFunc(nf)
	}
	return c
}

// ResolveType maps a type that may reference a named struct to the
// module's registered definition, following pointers and arrays.
func (m *Module) ResolveType(t *Type) *Type {
	if t == nil {
		return nil
	}
	switch t.Kind {
	case KStruct:
		if def, ok := m.Types[t.Name]; ok {
			return def
		}
		return t
	case KPtr:
		return PtrTo(m.ResolveType(t.Elem))
	case KArray:
		return ArrayOf(t.Len, m.ResolveType(t.Elem))
	}
	return t
}

// InstrRef identifies an instruction position within a module, used by
// reports and the instrumenter.
type InstrRef struct {
	Func  string
	Block string
	Index int
}

// String renders the reference as func/block#index.
func (r InstrRef) String() string {
	return fmt.Sprintf("%s/%s#%d", r.Func, r.Block, r.Index)
}
