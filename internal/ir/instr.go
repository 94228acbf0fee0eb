package ir

import "strconv"

// Value is an instruction operand: either a Const or a Reg.
type Value interface {
	isValue()
	String() string
}

// Const is an integer literal operand.
type Const struct{ Val int64 }

func (Const) isValue()         {}
func (c Const) String() string { return strconv.FormatInt(c.Val, 10) }

// Reg names a virtual register (a local variable of the enclosing
// function).  Registers are mutable: PIR is not SSA, which keeps the text
// format writable by hand while remaining analyzable — the DeepMC analyses
// are flow-based over traces, not def-use based.
type Reg struct{ Name string }

func (Reg) isValue()         {}
func (r Reg) String() string { return "%" + r.Name }

// C is shorthand for a Const operand.
func C(v int64) Const { return Const{Val: v} }

// R is shorthand for a Reg operand.
func R(name string) Reg { return Reg{Name: name} }

// Op enumerates PIR instruction opcodes.
type Op uint8

const (
	// OpConst: dst = const v
	OpConst Op = iota
	// OpBin: dst = <binop> a, b where binop is one of
	// add sub mul div mod and or xor shl shr eq ne lt le gt ge.
	OpBin
	// OpAlloc: dst = alloc T | dst = palloc T (persistent allocation).
	OpAlloc
	// OpGEP: dst = field p, "name" or dst = index p, i.
	// Produces a pointer to a member of the object p points to.
	OpGEP
	// OpLoad: dst = load p.
	OpLoad
	// OpStore: store p, v.  A store through a pointer into a persistent
	// object is a persistent write.
	OpStore
	// OpFlush: flush p [, size] — write the cacheline(s) backing the
	// referenced storage out of the volatile cache (clwb analogue).
	OpFlush
	// OpFence: fence — persist barrier (sfence analogue): all previously
	// issued flushes are durable before any later persistent operation.
	OpFence
	// OpTxBegin: txbegin — open a durable transaction.
	OpTxBegin
	// OpTxEnd: txend — commit: flush + fence everything logged.
	OpTxEnd
	// OpTxAdd: txadd p [, size] — undo-log the object p points at
	// (PMDK TX_ADD analogue).  A logged object is persisted at txend.
	OpTxAdd
	// OpEpochBegin: epochbegin — open an epoch (epoch persistency).
	OpEpochBegin
	// OpEpochEnd: epochend — close an epoch.  The epoch model requires a
	// fence at each epoch boundary; whether the program emits one is
	// exactly what the checker verifies, so epochend itself does not fence.
	OpEpochEnd
	// OpStrandBegin: strandbegin id — open strand id (strand persistency).
	OpStrandBegin
	// OpStrandEnd: strandend id.
	OpStrandEnd
	// OpCall: dst = call f(args...) or call f(args...).
	OpCall
	// OpRet: ret [v].
	OpRet
	// OpBr: br label.
	OpBr
	// OpCondBr: condbr v, ifLabel, elseLabel.
	OpCondBr
	// OpMemCopy: memcopy dst, src, size — bulk copy (memcpy analogue).
	OpMemCopy
	// OpMemSet: memset p, v, size — bulk fill (memset analogue).
	OpMemSet
)

var opNames = [...]string{
	OpConst:       "const",
	OpBin:         "bin",
	OpAlloc:       "alloc",
	OpGEP:         "gep",
	OpLoad:        "load",
	OpStore:       "store",
	OpFlush:       "flush",
	OpFence:       "fence",
	OpTxBegin:     "txbegin",
	OpTxEnd:       "txend",
	OpTxAdd:       "txadd",
	OpEpochBegin:  "epochbegin",
	OpEpochEnd:    "epochend",
	OpStrandBegin: "strandbegin",
	OpStrandEnd:   "strandend",
	OpCall:        "call",
	OpRet:         "ret",
	OpBr:          "br",
	OpCondBr:      "condbr",
	OpMemCopy:     "memcopy",
	OpMemSet:      "memset",
}

// String returns the opcode mnemonic.
func (op Op) String() string {
	if int(op) < len(opNames) {
		return opNames[op]
	}
	return "op(" + strconv.Itoa(int(op)) + ")"
}

// IsTerminator reports whether the opcode ends a basic block.
func (op Op) IsTerminator() bool {
	return op == OpRet || op == OpBr || op == OpCondBr
}

// Instr is a single PIR instruction.  Not every field is meaningful for
// every opcode; the verifier enforces the per-opcode shape.
type Instr struct {
	Op   Op
	Dst  string  // destination register name ("" if none)
	Bin  string  // binary operator mnemonic, for OpBin
	Args []Value // operands

	Type       *Type  // allocation type, for OpAlloc
	Persistent bool   // persistent allocation, for OpAlloc
	Field      string // field name, for field-form OpGEP ("" for index form)

	Callee string    // callee name, for OpCall
	Labels [2]string // branch targets: Labels[0] for OpBr; both for OpCondBr

	Line int // source line in the original program (ground-truth anchor)
}

// HasDst reports whether the instruction writes a register.
func (in *Instr) HasDst() bool { return in.Dst != "" }

// String renders the instruction in PIR text syntax (without line info).
func (in *Instr) String() string { return string(appendInstr(nil, in)) }
