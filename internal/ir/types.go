// Package ir defines PIR, a small typed intermediate representation for
// persistent-memory programs.
//
// PIR plays the role LLVM IR plays in the DeepMC paper: it is the common
// input of every analysis in this repository.  It provides exactly the
// operation vocabulary the DeepMC rules consume — stores, loads, cacheline
// flushes, persist barriers (fences), transactions, epochs, strands, calls —
// together with a field-sensitive addressing model so that the Data
// Structure Analysis (package dsa) can distinguish writes and flushes to
// individual fields of a persistent object.
//
// PIR has three equivalent forms: an in-memory object graph (Module,
// Function, Block, Instr), a human-readable text format (see Parse and
// Print), and a builder API (see Builder) used by the bug corpus.
package ir

import "math"

// TypeKind enumerates the kinds of PIR types.
type TypeKind uint8

const (
	// KInt is a 64-bit integer scalar.
	KInt TypeKind = iota
	// KPtr is a pointer to another PIR type.
	KPtr
	// KArray is a fixed-length array.
	KArray
	// KStruct is a named record with ordered fields.
	KStruct
)

// Type describes a PIR type.  Types are interned per Module: struct types
// are identified by name, and derived types (pointers, arrays) are built
// with PtrTo and ArrayOf.
type Type struct {
	Kind   TypeKind
	Name   string  // struct name, for KStruct
	Elem   *Type   // element type, for KPtr and KArray
	Len    int     // array length, for KArray
	Fields []Field // ordered fields, for KStruct
}

// Field is a single named member of a struct type.
type Field struct {
	Name string
	Type *Type
}

// IntType is the canonical 64-bit integer type shared by all modules.
var IntType = &Type{Kind: KInt}

// PtrTo returns a pointer type to elem.
func PtrTo(elem *Type) *Type { return &Type{Kind: KPtr, Elem: elem} }

// ArrayOf returns an array type of n elements of elem.
func ArrayOf(n int, elem *Type) *Type { return &Type{Kind: KArray, Elem: elem, Len: n} }

// StructType creates a named struct type with the given fields.
func StructType(name string, fields ...Field) *Type {
	return &Type{Kind: KStruct, Name: name, Fields: fields}
}

// FieldIndex returns the index of the named field, or -1 if t is not a
// struct or has no such field.
func (t *Type) FieldIndex(name string) int {
	if t == nil || t.Kind != KStruct {
		return -1
	}
	for i, f := range t.Fields {
		if f.Name == name {
			return i
		}
	}
	return -1
}

// FieldType returns the type of the named field, or nil.
func (t *Type) FieldType(name string) *Type {
	i := t.FieldIndex(name)
	if i < 0 {
		return nil
	}
	return t.Fields[i].Type
}

// Size returns the abstract size of the type in bytes.  Integers and
// pointers are 8 bytes; arrays and structs are the sum of their parts.
// Abstract sizes feed the NVM simulator's write-traffic accounting and the
// checker's flush-coverage reasoning.
func (t *Type) Size() int {
	if t == nil {
		return 8
	}
	switch t.Kind {
	case KInt, KPtr:
		return 8
	case KArray:
		return t.Len * t.Elem.Size()
	case KStruct:
		n := 0
		for _, f := range t.Fields {
			n += f.Type.Size()
		}
		return n
	}
	return 8
}

// checkedSize is Size with every product and sum checked: ok is false
// if computing t's size overflows int.  Size itself does not check: the
// parser calls checkedSize once for each struct a module declares and
// each array it allocates, so the sizes of a parsed module never wrap.
func checkedSize(t *Type) (size int, ok bool) {
	if t == nil {
		return 8, true
	}
	switch t.Kind {
	case KArray:
		n, ok := checkedSize(t.Elem)
		if !ok || (t.Len > 0 && n > math.MaxInt/t.Len) {
			return 0, false
		}
		return t.Len * n, true
	case KStruct:
		sum := 0
		for _, f := range t.Fields {
			n, ok := checkedSize(f.Type)
			if !ok || n > math.MaxInt-sum {
				return 0, false
			}
			sum += n
		}
		return sum, true
	}
	return t.Size(), true
}

// FieldOffset returns the byte offset of the named field within a struct,
// or -1 if absent.
func (t *Type) FieldOffset(name string) int {
	if t == nil || t.Kind != KStruct {
		return -1
	}
	off := 0
	for _, f := range t.Fields {
		if f.Name == name {
			return off
		}
		off += f.Type.Size()
	}
	return -1
}

// String renders the type in PIR syntax.
func (t *Type) String() string { return string(appendType(nil, t)) }

// Equal reports structural type equality.  Struct types compare by name.
func (t *Type) Equal(o *Type) bool {
	if t == o {
		return true
	}
	if t == nil || o == nil || t.Kind != o.Kind {
		return false
	}
	switch t.Kind {
	case KInt:
		return true
	case KPtr:
		return t.Elem.Equal(o.Elem)
	case KArray:
		return t.Len == o.Len && t.Elem.Equal(o.Elem)
	case KStruct:
		return t.Name == o.Name
	}
	return false
}
