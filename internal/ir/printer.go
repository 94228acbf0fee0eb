package ir

import "strconv"

// Print renders the module in parseable PIR text.  Print and Parse round-
// trip: Parse(Print(m)) yields a module that prints identically.
func Print(m *Module) string {
	b := append([]byte("module "), m.Name...)
	b = append(b, '\n')
	for _, tn := range m.TypeNames() {
		b = AppendTypeDecl(append(b, '\n'), m.Types[tn])
	}
	for _, fn := range m.FuncNames() {
		b = AppendFunc(b, m.Funcs[fn])
	}
	return string(b)
}

// PrintFunc renders one function in the same parseable PIR text Print
// emits for it.  The analysis cache fingerprints functions over these
// bytes: two functions that print identically behave identically under
// every analysis, so the rendering is the canonical content hash input.
func PrintFunc(f *Function) string { return string(AppendFunc(nil, f)) }

// PrintType renders one named struct type in Print's format (the other
// canonical cache-fingerprint input: field layout determines DSA cells
// and the unmodified-field performance rule).
func PrintType(t *Type) string { return string(AppendTypeDecl(nil, t)) }

// AppendTypeDecl appends PrintType's rendering of t to b.
func AppendTypeDecl(b []byte, t *Type) []byte {
	b = append(b, "type "...)
	b = append(b, t.Name...)
	b = append(b, " struct {\n"...)
	for _, f := range t.Fields {
		b = append(b, '\t')
		b = append(b, f.Name...)
		b = append(b, ": "...)
		b = appendType(b, f.Type)
		b = append(b, '\n')
	}
	return append(b, "}\n"...)
}

// AppendFunc appends PrintFunc's rendering of f to b.
func AppendFunc(b []byte, f *Function) []byte {
	b = append(b, "\nfunc "...)
	b = append(b, f.Name...)
	b = append(b, '(')
	for i, p := range f.Params {
		if i > 0 {
			b = append(b, ", "...)
		}
		b = append(b, p.Name...)
		if p.Type != nil {
			b = appendType(append(b, ": "...), p.Type)
		}
	}
	b = append(b, ')')
	if f.RetType != nil {
		b = appendType(append(b, ' '), f.RetType)
	}
	b = append(b, " {\n"...)
	if f.File != "" {
		// PIR string literals have no escapes: the lexer takes the bytes
		// between the quotes verbatim, so they print verbatim.
		b = append(b, "\tfile \""...)
		b = append(b, f.File...)
		b = append(b, "\"\n"...)
	}
	line := 0
	for bi, blk := range f.Blocks {
		if bi > 0 || blk.Name != "entry" {
			b = append(b, blk.Name...)
			b = append(b, ":\n"...)
		}
		for i := range blk.Instrs {
			in := &blk.Instrs[i]
			b = appendInstr(append(b, '\t'), in)
			if in.Line != 0 && in.Line != line {
				b = strconv.AppendInt(append(b, " @"...), int64(in.Line), 10)
				line = in.Line
			}
			b = append(b, '\n')
		}
	}
	return append(b, "}\n"...)
}

// appendType appends t in PIR type syntax (Type.String).
func appendType(b []byte, t *Type) []byte {
	if t == nil {
		return append(b, "<nil>"...)
	}
	switch t.Kind {
	case KInt:
		return append(b, "int"...)
	case KPtr:
		return appendType(append(b, '*'), t.Elem)
	case KArray:
		b = strconv.AppendInt(append(b, '['), int64(t.Len), 10)
		return appendType(append(b, ']'), t.Elem)
	case KStruct:
		if t.Name != "" {
			return append(b, t.Name...)
		}
		b = append(b, "struct {"...)
		for i, f := range t.Fields {
			if i > 0 {
				b = append(b, ", "...)
			}
			b = append(b, f.Name...)
			b = appendType(append(b, ": "...), f.Type)
		}
		return append(b, '}')
	}
	return append(b, '?')
}

// appendValue appends an operand (Value.String).
func appendValue(b []byte, v Value) []byte {
	switch v := v.(type) {
	case Const:
		return strconv.AppendInt(b, v.Val, 10)
	case Reg:
		return append(append(b, '%'), v.Name...)
	}
	return append(b, v.String()...)
}

// appendOperands appends vs separated by ", ".
func appendOperands(b []byte, vs []Value) []byte {
	for i, v := range vs {
		if i > 0 {
			b = append(b, ", "...)
		}
		b = appendValue(b, v)
	}
	return b
}

// appendInstr appends in in PIR text syntax (Instr.String).  Each
// opcode prints the operands its shape has, and no others.
func appendInstr(b []byte, in *Instr) []byte {
	if in.HasDst() {
		b = append(append(b, '%'), in.Dst...)
		b = append(b, " = "...)
	}
	switch in.Op {
	case OpConst, OpLoad, OpStrandBegin, OpStrandEnd:
		return appendOperands(append(append(b, in.Op.String()...), ' '), in.Args[:1])
	case OpStore:
		return appendOperands(append(b, "store "...), in.Args[:2])
	case OpMemCopy, OpMemSet:
		return appendOperands(append(append(b, in.Op.String()...), ' '), in.Args[:3])
	case OpFlush, OpTxAdd:
		return appendOperands(append(append(b, in.Op.String()...), ' '), in.Args[:min(len(in.Args), 2)])
	case OpBin:
		b = append(append(b, in.Bin...), ' ')
		return appendOperands(b, in.Args[:2])
	case OpAlloc:
		if in.Persistent {
			b = append(b, "palloc "...)
		} else {
			b = append(b, "alloc "...)
		}
		return appendType(b, in.Type)
	case OpGEP:
		if in.Field == "" {
			return appendOperands(append(b, "index "...), in.Args[:2])
		}
		b = appendValue(append(b, "field "...), in.Args[0])
		b = append(append(b, ", \""...), in.Field...) // verbatim, as lexed
		return append(b, '"')
	case OpCall:
		b = append(append(b, "call "...), in.Callee...)
		return append(appendOperands(append(b, '('), in.Args), ')')
	case OpRet:
		b = append(b, "ret"...)
		if len(in.Args) > 0 {
			b = appendValue(append(b, ' '), in.Args[0])
		}
		return b
	case OpBr:
		return append(append(b, "br "...), in.Labels[0]...)
	case OpCondBr:
		b = appendValue(append(b, "condbr "...), in.Args[0])
		b = append(append(b, ", "...), in.Labels[0]...)
		return append(append(b, ", "...), in.Labels[1]...)
	}
	// fence, txbegin, txend, epochbegin, epochend: the mnemonic alone.
	return append(b, in.Op.String()...)
}
