package ir

import (
	"fmt"
	"strconv"
)

// Parse reads a module from PIR text.  The format, by example:
//
//	module pmdk
//
//	type tree_map_node struct {
//	    n: int
//	    items: [8]int
//	    slots: [9]*tree_map_node
//	}
//
//	func btree_map_create_split_node(node: *tree_map_node, c: int) *tree_map_node {
//	    file "btree_map.c"
//	entry:
//	    %i   = sub %c, 1
//	    %p   = index %node.items, %i    @201
//	    store %p, 0                     @201
//	    ret %node
//	}
//
// Statements end at newlines; `@N` suffixes record the original source
// line; `;` and `//` start comments.  Pointer operands of load, store,
// flush, txadd, memcopy and memset accept place expressions
// (%reg.field[index]...), which the parser lowers to explicit gep
// instructions on fresh temporaries.
func Parse(src string) (*Module, error) {
	p := &parser{lx: lexer{src: src, line: 1}}
	p.advance()
	m, err := p.parseModule()
	if err != nil {
		// A lexical error anywhere in the source wins over a parse
		// error, whichever comes first.
		p.lx.drain()
	}
	if p.lx.err != nil {
		return nil, p.lx.err
	}
	return m, err
}

// MustParse is Parse that panics on error; for tests and embedded corpus
// sources that are compile-time constants.
func MustParse(src string) *Module {
	m, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return m
}

type parser struct {
	lx       lexer
	tok      token // the current token
	ahead    token // the token after it, if hasAhead
	hasAhead bool

	mod  *Module
	fn   *Function
	blk  *Block
	line int // current @line annotation scope (last seen)

	// instrs collects the current block's instructions; the block gets
	// its own exactly sized copy when it ends.
	instrs []Instr
	// stmt indexes the current statement's first instruction in instrs,
	// so a trailing @N stamps every instruction lowered from it.
	stmt int
	// temps[i] is the name of a function's temporary number i+1; ntemp
	// counts the current function's temporaries.
	temps []string
	ntemp int
	// vals is the arena operand lists are cut from; callArgs collects
	// one call's arguments.
	vals     []Value
	callArgs []Value
	// arrayAllocs holds each alloc of an array type, whose size is
	// checked once the module is parsed: the interpreter sizes it with
	// named structs resolved, and one may be declared after its use.
	arrayAllocs []arrayAlloc
}

// arrayAlloc is an alloc of an array type and the token that named it.
type arrayAlloc struct {
	at token
	ty *Type
}

func (p *parser) advance() {
	if p.hasAhead {
		p.tok, p.hasAhead = p.ahead, false
		return
	}
	p.tok = p.lx.next()
}

// peek2 returns the kind of the token after the current one.
func (p *parser) peek2() tokKind {
	if !p.hasAhead {
		p.ahead, p.hasAhead = p.lx.next(), true
	}
	return p.ahead.kind
}

func (p *parser) peek() token       { return p.tok }
func (p *parser) next() token       { t := p.tok; p.advance(); return t }
func (p *parser) at(k tokKind) bool { return p.tok.kind == k }

func (p *parser) errf(t token, format string, args ...any) error {
	return fmt.Errorf("pir: line %d: %s", t.line, fmt.Sprintf(format, args...))
}

func (p *parser) expect(k tokKind) (token, error) {
	t := p.next()
	if t.kind != k {
		return t, p.errf(t, "expected %s, found %s %q", k, t.kind, t.text)
	}
	return t, nil
}

func (p *parser) expectKeyword(kw string) error {
	t, err := p.expect(tIdent)
	if err != nil {
		return err
	}
	if t.text != kw {
		return p.errf(t, "expected %q, found %q", kw, t.text)
	}
	return nil
}

func (p *parser) skipNewlines() {
	for p.at(tNewline) {
		p.advance()
	}
}

func (p *parser) endStatement() error {
	t := p.next()
	if t.kind != tNewline && t.kind != tEOF {
		return p.errf(t, "expected end of statement, found %s %q", t.kind, t.text)
	}
	return nil
}

func (p *parser) parseModule() (*Module, error) {
	p.skipNewlines()
	if err := p.expectKeyword("module"); err != nil {
		return nil, err
	}
	name, err := p.expect(tIdent)
	if err != nil {
		return nil, err
	}
	p.mod = NewModule(name.text)
	if err := p.endStatement(); err != nil {
		return nil, err
	}
	for {
		p.skipNewlines()
		t := p.peek()
		switch {
		case t.kind == tEOF:
			for _, a := range p.arrayAllocs {
				if _, ok := checkedSize(p.mod.ResolveType(a.ty)); !ok {
					return nil, p.errf(a.at, "size of type %s overflows int", a.ty)
				}
			}
			return p.mod, nil
		case t.kind == tIdent && t.text == "type":
			if err := p.parseTypeDecl(); err != nil {
				return nil, err
			}
		case t.kind == tIdent && t.text == "func":
			if err := p.parseFunc(); err != nil {
				return nil, err
			}
		default:
			return nil, p.errf(t, "expected 'type' or 'func' declaration, found %q", t.text)
		}
	}
}

func (p *parser) parseTypeDecl() error {
	p.next() // 'type'
	name, err := p.expect(tIdent)
	if err != nil {
		return err
	}
	if err := p.expectKeyword("struct"); err != nil {
		return err
	}
	if _, err := p.expect(tLBrace); err != nil {
		return err
	}
	st := &Type{Kind: KStruct, Name: name.text}
	for {
		p.skipNewlines()
		if p.at(tRBrace) {
			p.next()
			break
		}
		fname, err := p.expect(tIdent)
		if err != nil {
			return err
		}
		if _, err := p.expect(tColon); err != nil {
			return err
		}
		ft, err := p.parseType()
		if err != nil {
			return err
		}
		st.Fields = append(st.Fields, Field{Name: fname.text, Type: ft})
		// Optional comma or newline separates fields.
		if p.at(tComma) {
			p.next()
		}
	}
	if _, ok := checkedSize(st); !ok {
		return p.errf(name, "size of type %s overflows int", name.text)
	}
	p.mod.AddType(st)
	return p.endStatement()
}

// parseType parses int | *T | [N]T | StructName.
func (p *parser) parseType() (*Type, error) {
	t := p.peek()
	switch t.kind {
	case tStar:
		p.next()
		elem, err := p.parseType()
		if err != nil {
			return nil, err
		}
		return PtrTo(elem), nil
	case tLBrack:
		p.next()
		n, err := p.expect(tInt)
		if err != nil {
			return nil, err
		}
		if n.ival < 0 {
			return nil, p.errf(n, "negative array length %d", n.ival)
		}
		if _, err := p.expect(tRBrack); err != nil {
			return nil, err
		}
		elem, err := p.parseType()
		if err != nil {
			return nil, err
		}
		return ArrayOf(int(n.ival), elem), nil
	case tIdent:
		p.next()
		if t.text == "int" {
			return IntType, nil
		}
		// Named struct reference; resolved lazily against the module so
		// mutually recursive types work.
		if def, ok := p.mod.Types[t.text]; ok {
			return def, nil
		}
		return &Type{Kind: KStruct, Name: t.text}, nil
	}
	return nil, p.errf(t, "expected type, found %s %q", t.kind, t.text)
}

func (p *parser) parseFunc() error {
	p.next() // 'func'
	name, err := p.expect(tIdent)
	if err != nil {
		return err
	}
	p.fn = &Function{Name: name.text}
	p.ntemp = 0
	if _, err := p.expect(tLParen); err != nil {
		return err
	}
	for !p.at(tRParen) {
		pn, err := p.expect(tIdent)
		if err != nil {
			return err
		}
		param := Param{Name: pn.text}
		if p.at(tColon) {
			p.next()
			pt, err := p.parseType()
			if err != nil {
				return err
			}
			param.Type = pt
		}
		p.fn.Params = append(p.fn.Params, param)
		if p.at(tComma) {
			p.next()
		}
	}
	p.next() // ')'
	if !p.at(tLBrace) {
		rt, err := p.parseType()
		if err != nil {
			return err
		}
		p.fn.RetType = rt
	}
	if _, err := p.expect(tLBrace); err != nil {
		return err
	}
	p.blk = &Block{Name: "entry"}
	p.fn.AddBlock(p.blk)
	p.instrs = p.instrs[:0]
	p.line = 0
	for {
		p.skipNewlines()
		t := p.peek()
		if t.kind == tRBrace {
			p.next()
			break
		}
		if err := p.parseStatement(); err != nil {
			return err
		}
	}
	p.endBlock()
	// Drop the implicit entry block if the source immediately opened a
	// labeled block and never used it.  The block index stays built:
	// concurrent analyses share a parsed module read-only.
	if len(p.fn.Blocks) > 1 && len(p.fn.Blocks[0].Instrs) == 0 && p.fn.Blocks[0].Name == "entry" {
		p.fn.Blocks = p.fn.Blocks[1:]
		p.fn.reindex()
	}
	p.mod.AddFunc(p.fn)
	return p.endStatement()
}

// endBlock stores the current block's instructions.
func (p *parser) endBlock() {
	p.blk.Instrs = nil
	if len(p.instrs) > 0 {
		p.blk.Instrs = make([]Instr, len(p.instrs))
		copy(p.blk.Instrs, p.instrs)
	}
	p.instrs = p.instrs[:0]
}

// parseStatement handles one line: a label, a file directive, or an
// instruction.
func (p *parser) parseStatement() error {
	t := p.peek()
	// Label: ident ':'
	if t.kind == tIdent && p.peek2() == tColon {
		p.next()
		p.next()
		p.endBlock()
		if blk := p.fn.Block(t.text); blk != nil {
			// A label reopens its block: later statements append to it.
			p.blk = blk
			p.instrs = append(p.instrs, blk.Instrs...)
		} else {
			p.blk = &Block{Name: t.text}
			p.fn.AddBlock(p.blk)
		}
		return p.endStatement()
	}
	if t.kind == tIdent && t.text == "file" {
		p.next()
		s, err := p.expect(tString)
		if err != nil {
			return err
		}
		p.fn.File = s.text
		return p.endStatement()
	}
	return p.parseInstr()
}

// emit appends in to the current block, stamping the pending @line.
func (p *parser) emit(in Instr) {
	in.Line = p.line
	p.instrs = append(p.instrs, in)
}

// args returns vs as an operand list cut from the arena (nil if empty).
// The list's capacity is its length, so appending to it copies.
func (p *parser) args(vs ...Value) []Value {
	if len(vs) == 0 {
		return nil
	}
	if len(p.vals)+len(vs) > cap(p.vals) {
		p.vals = make([]Value, 0, max(256, len(vs)))
	}
	start := len(p.vals)
	p.vals = append(p.vals, vs...)
	return p.vals[start:len(p.vals):len(p.vals)]
}

// fresh names the function's next temporary: .p1, .p2, ...
func (p *parser) fresh() string {
	if p.ntemp == len(p.temps) {
		p.temps = append(p.temps, ".p"+strconv.Itoa(p.ntemp+1))
	}
	p.ntemp++
	return p.temps[p.ntemp-1]
}

// parseValue parses %reg or integer literal.
func (p *parser) parseValue() (Value, error) {
	t := p.next()
	switch t.kind {
	case tReg:
		return R(t.text), nil
	case tInt:
		return C(t.ival), nil
	}
	return nil, p.errf(t, "expected value, found %s %q", t.kind, t.text)
}

// parsePlace parses %reg('.'field | '['value']')* and lowers the access
// path to gep instructions, returning the final pointer value.
func (p *parser) parsePlace() (Value, error) {
	t := p.next()
	if t.kind == tInt {
		// A raw address constant (rare; used by low-level tests).
		return C(t.ival), nil
	}
	if t.kind != tReg {
		return nil, p.errf(t, "expected place, found %s %q", t.kind, t.text)
	}
	var cur Value = R(t.text)
	for {
		switch p.peek().kind {
		case tDot:
			p.next()
			f, err := p.expect(tIdent)
			if err != nil {
				return nil, err
			}
			dst := p.fresh()
			p.emit(Instr{Op: OpGEP, Dst: dst, Field: f.text, Args: p.args(cur)})
			cur = R(dst)
		case tLBrack:
			p.next()
			idx, err := p.parseValue()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(tRBrack); err != nil {
				return nil, err
			}
			dst := p.fresh()
			p.emit(Instr{Op: OpGEP, Dst: dst, Args: p.args(cur, idx)})
			cur = R(dst)
		default:
			return cur, nil
		}
	}
}

// parseLineSuffix consumes an optional @N annotation, updating the pending
// source line, then requires end of statement.
func (p *parser) parseLineSuffix() error {
	if p.at(tAt) {
		p.next()
		n, err := p.expect(tInt)
		if err != nil {
			return err
		}
		p.line = int(n.ival)
		// Stamp the just-updated line onto every instruction emitted for
		// this statement, which carried the stale line (gep lowering).
		for i := p.stmt; i < len(p.instrs); i++ {
			p.instrs[i].Line = p.line
		}
	}
	return p.endStatement()
}

func isBinMnemonic(s string) bool {
	switch s {
	case "add", "sub", "mul", "div", "mod", "and", "or", "xor",
		"shl", "shr", "eq", "ne", "lt", "le", "gt", "ge":
		return true
	}
	return false
}

func (p *parser) parseInstr() error {
	p.stmt = len(p.instrs)
	t := p.peek()
	if t.kind == tReg {
		return p.parseAssign()
	}
	if t.kind != tIdent {
		return p.errf(t, "expected instruction, found %s %q", t.kind, t.text)
	}
	p.next()
	switch t.text {
	case "store":
		ptr, err := p.parsePlace()
		if err != nil {
			return err
		}
		if _, err := p.expect(tComma); err != nil {
			return err
		}
		v, err := p.parseValue()
		if err != nil {
			return err
		}
		p.emit(Instr{Op: OpStore, Args: p.args(ptr, v)})
	case "flush":
		ptr, err := p.parsePlace()
		if err != nil {
			return err
		}
		args, err := p.optionalSize(ptr)
		if err != nil {
			return err
		}
		p.emit(Instr{Op: OpFlush, Args: args})
	case "fence":
		p.emit(Instr{Op: OpFence})
	case "txbegin":
		p.emit(Instr{Op: OpTxBegin})
	case "txend":
		p.emit(Instr{Op: OpTxEnd})
	case "txadd":
		ptr, err := p.parsePlace()
		if err != nil {
			return err
		}
		args, err := p.optionalSize(ptr)
		if err != nil {
			return err
		}
		p.emit(Instr{Op: OpTxAdd, Args: args})
	case "epochbegin":
		p.emit(Instr{Op: OpEpochBegin})
	case "epochend":
		p.emit(Instr{Op: OpEpochEnd})
	case "strandbegin", "strandend":
		id, err := p.parseValue()
		if err != nil {
			return err
		}
		op := OpStrandBegin
		if t.text == "strandend" {
			op = OpStrandEnd
		}
		p.emit(Instr{Op: op, Args: p.args(id)})
	case "call":
		if err := p.parseCall(""); err != nil {
			return err
		}
	case "ret":
		var args []Value
		if !p.at(tNewline) && !p.at(tAt) && !p.at(tEOF) {
			v, err := p.parseValue()
			if err != nil {
				return err
			}
			args = p.args(v)
		}
		p.emit(Instr{Op: OpRet, Args: args})
	case "br":
		l, err := p.expect(tIdent)
		if err != nil {
			return err
		}
		p.emit(Instr{Op: OpBr, Labels: [2]string{l.text}})
	case "condbr":
		v, err := p.parseValue()
		if err != nil {
			return err
		}
		if _, err := p.expect(tComma); err != nil {
			return err
		}
		l1, err := p.expect(tIdent)
		if err != nil {
			return err
		}
		if _, err := p.expect(tComma); err != nil {
			return err
		}
		l2, err := p.expect(tIdent)
		if err != nil {
			return err
		}
		p.emit(Instr{Op: OpCondBr, Args: p.args(v), Labels: [2]string{l1.text, l2.text}})
	case "memcopy", "memset":
		a, err := p.parsePlace()
		if err != nil {
			return err
		}
		if _, err := p.expect(tComma); err != nil {
			return err
		}
		var b Value
		if t.text == "memcopy" {
			b, err = p.parsePlace()
		} else {
			b, err = p.parseValue()
		}
		if err != nil {
			return err
		}
		if _, err := p.expect(tComma); err != nil {
			return err
		}
		c, err := p.parseValue()
		if err != nil {
			return err
		}
		op := OpMemCopy
		if t.text == "memset" {
			op = OpMemSet
		}
		p.emit(Instr{Op: op, Args: p.args(a, b, c)})
	default:
		return p.errf(t, "unknown instruction %q", t.text)
	}
	return p.parseLineSuffix()
}

func (p *parser) parseAssign() error {
	dst, err := p.expect(tReg)
	if err != nil {
		return err
	}
	if _, err := p.expect(tEq); err != nil {
		return err
	}
	t := p.next()
	if t.kind != tIdent {
		return p.errf(t, "expected opcode after '=', found %s %q", t.kind, t.text)
	}
	switch {
	case t.text == "const":
		v, err := p.parseValue()
		if err != nil {
			return err
		}
		p.emit(Instr{Op: OpConst, Dst: dst.text, Args: p.args(v)})
	case isBinMnemonic(t.text):
		a, err := p.parseValue()
		if err != nil {
			return err
		}
		if _, err := p.expect(tComma); err != nil {
			return err
		}
		b, err := p.parseValue()
		if err != nil {
			return err
		}
		p.emit(Instr{Op: OpBin, Bin: t.text, Dst: dst.text, Args: p.args(a, b)})
	case t.text == "alloc" || t.text == "palloc":
		ty, err := p.parseType()
		if err != nil {
			return err
		}
		if ty.Kind == KArray {
			p.arrayAllocs = append(p.arrayAllocs, arrayAlloc{t, ty})
		}
		p.emit(Instr{Op: OpAlloc, Dst: dst.text, Type: ty, Persistent: t.text == "palloc"})
	case t.text == "field":
		base, err := p.parsePlace()
		if err != nil {
			return err
		}
		if _, err := p.expect(tComma); err != nil {
			return err
		}
		f, err := p.expect(tString)
		if err != nil {
			return err
		}
		p.emit(Instr{Op: OpGEP, Dst: dst.text, Field: f.text, Args: p.args(base)})
	case t.text == "index":
		base, err := p.parsePlace()
		if err != nil {
			return err
		}
		if _, err := p.expect(tComma); err != nil {
			return err
		}
		idx, err := p.parseValue()
		if err != nil {
			return err
		}
		p.emit(Instr{Op: OpGEP, Dst: dst.text, Args: p.args(base, idx)})
	case t.text == "load":
		ptr, err := p.parsePlace()
		if err != nil {
			return err
		}
		p.emit(Instr{Op: OpLoad, Dst: dst.text, Args: p.args(ptr)})
	case t.text == "call":
		if err := p.parseCall(dst.text); err != nil {
			return err
		}
	default:
		return p.errf(t, "unknown opcode %q", t.text)
	}
	return p.parseLineSuffix()
}

func (p *parser) parseCall(dst string) error {
	name, err := p.expect(tIdent)
	if err != nil {
		return err
	}
	if _, err := p.expect(tLParen); err != nil {
		return err
	}
	p.callArgs = p.callArgs[:0]
	for !p.at(tRParen) {
		v, err := p.parsePlace()
		if err != nil {
			return err
		}
		p.callArgs = append(p.callArgs, v)
		if p.at(tComma) {
			p.next()
		}
	}
	p.next() // ')'
	p.emit(Instr{Op: OpCall, Dst: dst, Callee: name.text, Args: p.args(p.callArgs...)})
	return nil
}

// optionalSize parses the optional ", size" operand of flush and txadd.
func (p *parser) optionalSize(ptr Value) ([]Value, error) {
	if !p.at(tComma) {
		return p.args(ptr), nil
	}
	p.next()
	sz, err := p.parseValue()
	if err != nil {
		return nil, err
	}
	return p.args(ptr, sz), nil
}
