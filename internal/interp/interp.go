// Package interp executes PIR programs.  It provides the runtime DeepMC's
// dynamic checker needs (paper §4.4): every persistency-relevant action —
// persistent loads and stores, flushes, fences, transaction, epoch and
// strand boundaries — is surfaced through a Hooks interface, which the
// instrumented runtime library (package dynamic) implements.
//
// Strand regions execute serially but carry logical strand identities;
// happens-before reasoning in the dynamic checker treats distinct strands
// as concurrent, which makes race detection deterministic without real
// thread scheduling.
package interp

import (
	"context"
	"fmt"

	"deepmc/internal/ir"
	"deepmc/internal/pmcontract"
)

// Object is one allocated object.
type Object struct {
	ID         int
	Type       *ir.Type
	Persistent bool
	Slots      []Val // one Val per 8-byte slot
}

// Ref is a pointer value: an object plus a byte offset.  T caches the
// pointee type at that position (needed to distinguish a pointer to a
// struct from a pointer to its first field when both sit at offset 0).
type Ref struct {
	Obj *Object
	Off int // byte offset
	T   *ir.Type
}

// Val is a runtime value: an integer or a reference.
type Val struct {
	I int64
	R *Ref
}

// IsPtr reports whether the value carries a reference.
func (v Val) IsPtr() bool { return v.R != nil }

// String renders the value.
func (v Val) String() string {
	if v.R != nil {
		return fmt.Sprintf("&obj%d+%d", v.R.Obj.ID, v.R.Off)
	}
	return fmt.Sprintf("%d", v.I)
}

// Hooks observes runtime memory and persistency events.  Hooks fire for
// every load/store/flush regardless of the object's persistence — the
// Object carries its Persistent flag, and the runtime library decides
// what to track (persistent-only by default, everything under the
// TrackAll ablation).  All offsets and sizes are in bytes, and at is the
// executing instruction's site (ir.Function.Site).
type Hooks interface {
	OnWrite(obj *Object, off, size int, at *ir.Site)
	OnRead(obj *Object, off, size int, at *ir.Site)
	OnFlush(obj *Object, off, size int, at *ir.Site)
	OnFence(at *ir.Site)
	OnTxBegin(at *ir.Site)
	OnTxEnd(at *ir.Site)
	// OnTxAdd reports an undo-log registration (TX_ADD) of size bytes at
	// obj+off.
	OnTxAdd(obj *Object, off, size int, at *ir.Site)
	OnEpochBegin(at *ir.Site)
	OnEpochEnd(at *ir.Site)
	OnStrandBegin(id int64, at *ir.Site)
	OnStrandEnd(id int64, at *ir.Site)
}

// Evictor is an optional Hooks extension for fault injection: OnEvict
// reports a spontaneous write-back of dirty persistent bytes — the
// cache evicted (part of) a line before any flush/fence asked for it.
// Eviction is legal under clwb/sfence semantics (any dirty line may
// persist at any time), so implementations must treat the range as
// durable immediately, without fence ordering.  The torn-write fault
// class delivers partial-store persistence through this hook.
type Evictor interface {
	OnEvict(obj *Object, off, size int, at *ir.Site)
}

// PartialFencer is an optional Hooks extension for fault injection:
// OnPartialFence fires just before OnFence for the same instruction and
// describes a mid-drain state of that fence — the drain has retired
// only some staged lines when a crash is imagined to land inside the
// sfence.  pick(n) returns the indices (into the implementation's
// canonically ordered staged set of size n) that have already drained;
// the implementation may record the resulting intermediate durable
// image as an extra crash surface.  The fence that follows still
// completes in full, so the sfence durability contract is unchanged.
type PartialFencer interface {
	OnPartialFence(pick func(n int) []int, at *ir.Site)
}

// StepObserver is an optional Hooks extension.  When the installed
// Hooks value also implements StepObserver, the interpreter calls
// OnStep after the instruction at the given 1-based step index has
// fully executed, with the instruction's opcode.  Memory and
// persistency hooks fire while their instruction executes, so an
// observer sees: hooks of step k, then OnStep(k).  For a call
// instruction OnStep fires after the callee has returned; the callee's
// own instructions report their own (larger) step indices first.
//
// The crash simulator uses this to attribute persistency events to
// crash points: "crash after step k" (a run under MaxSteps = k) stops
// exactly at the state OnStep(k) observed, so steps whose OnStep saw no
// persistency event can be pruned from crash enumeration.
type StepObserver interface {
	OnStep(step int, op ir.Op)
}

// ChoicePointer is an optional Hooks extension for schedule fuzzing.
// When the installed Hooks value also implements ChoicePointer, the
// interpreter calls OnChoicePoint immediately BEFORE executing each
// persistency-schedule-relevant instruction (flush, fence, transaction
// end, strand begin/end), with a 1-based sequence number that counts
// only choice points.  The sequence is a pure function of the control
// flow taken, so a genome that names choice-point ordinals addresses
// the same program sites on every replay of the same schedule — that
// stable addressing is what makes delay-injection points mutable
// (shift by one = previous/next persistency event) without re-deriving
// site tables.  The corresponding memory/persistency hook for the same
// instruction fires after OnChoicePoint, while the instruction
// executes.
type ChoicePointer interface {
	OnChoicePoint(seq int, op ir.Op, at *ir.Site)
}

// ContractHolder is an optional Hooks extension: a hook set that models
// a specific hardware persistency contract exposes it here, and
// decorators that inject hardware behavior (package faultinj) discover
// it to stay inside what that contract permits.  The zero contract is
// x86 clwb/sfence; a CXL contract with a persistence domain makes
// in-domain stores durable at store time, so torn writes and dropped
// flushes are contractually impossible there.  Hook sets without the
// extension get x86 semantics, the pre-contract behavior.
type ContractHolder interface {
	PersistencyContract() pmcontract.Contract
}

// NopHooks is an embeddable no-op Hooks implementation.
type NopHooks struct{}

func (NopHooks) OnWrite(*Object, int, int, *ir.Site) {}
func (NopHooks) OnRead(*Object, int, int, *ir.Site)  {}
func (NopHooks) OnFlush(*Object, int, int, *ir.Site) {}
func (NopHooks) OnFence(*ir.Site)                    {}
func (NopHooks) OnTxBegin(*ir.Site)                  {}
func (NopHooks) OnTxEnd(*ir.Site)                    {}
func (NopHooks) OnTxAdd(*Object, int, int, *ir.Site) {}
func (NopHooks) OnEpochBegin(*ir.Site)               {}
func (NopHooks) OnEpochEnd(*ir.Site)                 {}
func (NopHooks) OnStrandBegin(int64, *ir.Site)       {}
func (NopHooks) OnStrandEnd(int64, *ir.Site)         {}

// Interp executes one module.
type Interp struct {
	Module *ir.Module
	Hooks  Hooks
	// MaxSteps bounds total executed instructions (0 = default 1<<22).
	MaxSteps int

	steps          int
	nextObj        int
	choiceSeq      int
	budgetExceeded bool
	canceled       bool
	ctx            context.Context
	obs            StepObserver
	cp             ChoicePointer
}

// New creates an interpreter; hooks may be nil.
func New(m *ir.Module, hooks Hooks) *Interp {
	if hooks == nil {
		hooks = NopHooks{}
	}
	ip := &Interp{Module: m, Hooks: hooks, MaxSteps: 1 << 22}
	ip.obs, _ = hooks.(StepObserver)
	ip.cp, _ = hooks.(ChoicePointer)
	return ip
}

// Steps returns the number of instructions executed so far.
func (ip *Interp) Steps() int { return ip.steps }

// BudgetExhausted reports whether the last error came from the MaxSteps
// budget (the crash simulator's intentional stop) rather than a program
// fault.
func (ip *Interp) BudgetExhausted() bool { return ip.budgetExceeded }

// SetContext installs a cancellation context.  The interpreter polls it
// every 1024 steps and aborts the run with a wrapped ctx.Err() when it
// is done; Canceled() then reports true.  A nil context disables the
// check.
func (ip *Interp) SetContext(ctx context.Context) { ip.ctx = ctx }

// Canceled reports whether the last error came from the installed
// context being done rather than a program fault.  Like a budget abort,
// the step counter includes the instruction that was refused.
func (ip *Interp) Canceled() bool { return ip.canceled }

// Run calls the named function with integer arguments and returns its
// result (zero Val for void functions).
func (ip *Interp) Run(fn string, args ...int64) (Val, error) {
	vals := make([]Val, len(args))
	for i, a := range args {
		vals[i] = Val{I: a}
	}
	return ip.Call(fn, vals...)
}

// Call invokes the named function with the given values.
func (ip *Interp) Call(fn string, args ...Val) (Val, error) {
	f := ip.Module.Funcs[fn]
	if f == nil {
		return Val{}, fmt.Errorf("interp: undefined function %q", fn)
	}
	if len(args) > len(f.Params) {
		return Val{}, fmt.Errorf("interp: %s: %d args for %d params", fn, len(args), len(f.Params))
	}
	frame := &frame{regs: make(map[string]Val, 16)}
	for i, p := range f.Params {
		if i < len(args) {
			frame.regs[p.Name] = args[i]
		}
	}
	return ip.exec(f, frame)
}

// frame holds one call's registers.  The function travels beside it
// rather than inside it: looking up a site leaks the *ir.Function to
// the heap, and escape analysis would take the register map along.
type frame struct {
	regs map[string]Val
}

func (ip *Interp) exec(f *ir.Function, fr *frame) (Val, error) {
	blk := f.Entry()
	if blk == nil {
		return Val{}, fmt.Errorf("interp: %s has no blocks", f.Name)
	}
	for {
		var next string
		for i := range blk.Instrs {
			in := &blk.Instrs[i]
			ip.steps++
			// The step index belongs to this instruction; nested calls
			// advance ip.steps further before OnStep fires for the call.
			stepIdx := ip.steps
			if ip.MaxSteps > 0 && ip.steps > ip.MaxSteps {
				ip.budgetExceeded = true
				return Val{}, fmt.Errorf("interp: step budget exhausted in %s", f.Name)
			}
			if ip.ctx != nil && ip.steps&1023 == 0 {
				select {
				case <-ip.ctx.Done():
					ip.canceled = true
					return Val{}, fmt.Errorf("interp: canceled at step %d in %s: %w", ip.steps, f.Name, ip.ctx.Err())
				default:
				}
			}
			switch in.Op {
			case ir.OpRet:
				var rv Val
				if len(in.Args) == 1 {
					rv = fr.val(in.Args[0])
				}
				if ip.obs != nil {
					ip.obs.OnStep(stepIdx, in.Op)
				}
				return rv, nil
			case ir.OpBr:
				next = in.Labels[0]
			case ir.OpCondBr:
				if fr.val(in.Args[0]).I != 0 {
					next = in.Labels[0]
				} else {
					next = in.Labels[1]
				}
			default:
				if err := ip.step(f, fr, in); err != nil {
					return Val{}, fmt.Errorf("%s/%s#%d: %w", f.Name, blk.Name, i, err)
				}
			}
			if in.Op != ir.OpRet && ip.obs != nil {
				ip.obs.OnStep(stepIdx, in.Op)
			}
		}
		if next == "" {
			return Val{}, fmt.Errorf("interp: %s/%s: fell off block end", f.Name, blk.Name)
		}
		blk = f.Block(next)
		if blk == nil {
			return Val{}, fmt.Errorf("interp: %s: missing block %q", f.Name, next)
		}
	}
}

func (fr *frame) val(v ir.Value) Val {
	switch x := v.(type) {
	case ir.Const:
		return Val{I: x.Val}
	case ir.Reg:
		return fr.regs[x.Name]
	}
	return Val{}
}

// maxSlots bounds one object's 8-byte slots (8 MiB of modeled memory).
// A type may parse with a size far beyond what the host can hold, and
// the interpreter would otherwise try to make the slice.
const maxSlots = 1 << 20

// slotCount returns how many 8-byte slots a type occupies.
func slotCount(t *ir.Type) int {
	n := t.Size() / 8
	if n < 1 {
		n = 1
	}
	return n
}

func (ip *Interp) step(f *ir.Function, fr *frame, in *ir.Instr) error {
	at := func() *ir.Site { return f.Site(in.Line) }
	if ip.cp != nil {
		switch in.Op {
		case ir.OpFlush, ir.OpFence, ir.OpTxEnd, ir.OpStrandBegin, ir.OpStrandEnd:
			ip.choiceSeq++
			ip.cp.OnChoicePoint(ip.choiceSeq, in.Op, at())
		}
	}
	switch in.Op {
	case ir.OpConst:
		fr.regs[in.Dst] = fr.val(in.Args[0])
	case ir.OpBin:
		a, b := fr.val(in.Args[0]), fr.val(in.Args[1])
		// Pointer copy idiom: or/add with 0 propagates references.
		if a.IsPtr() && b.I == 0 && (in.Bin == "or" || in.Bin == "add") {
			fr.regs[in.Dst] = a
			return nil
		}
		r, err := binop(in.Bin, a.I, b.I)
		if err != nil {
			return err
		}
		fr.regs[in.Dst] = Val{I: r}
	case ir.OpAlloc:
		t := ip.Module.ResolveType(in.Type)
		n := slotCount(t)
		if n > maxSlots {
			return fmt.Errorf("alloc of %s: %d bytes exceeds the %d-byte object limit", t, t.Size(), maxSlots*8)
		}
		ip.nextObj++
		obj := &Object{
			ID:         ip.nextObj,
			Type:       t,
			Persistent: in.Persistent,
			Slots:      make([]Val, n),
		}
		fr.regs[in.Dst] = Val{R: &Ref{Obj: obj, T: t}}
	case ir.OpGEP:
		base := fr.val(in.Args[0])
		if !base.IsPtr() {
			return fmt.Errorf("gep through non-pointer %s", base)
		}
		var idx int64
		if in.Field == "" {
			idx = fr.val(in.Args[1]).I
		}
		off, pt, err := ip.gepOffset(base, in, idx)
		if err != nil {
			return err
		}
		fr.regs[in.Dst] = Val{R: &Ref{Obj: base.R.Obj, Off: off, T: pt}}
	case ir.OpLoad:
		p := fr.val(in.Args[0])
		if !p.IsPtr() {
			return fmt.Errorf("load through non-pointer %s", p)
		}
		slot := p.R.Off / 8
		if slot < 0 || slot >= len(p.R.Obj.Slots) {
			return fmt.Errorf("load out of bounds: obj%d+%d", p.R.Obj.ID, p.R.Off)
		}
		ip.Hooks.OnRead(p.R.Obj, p.R.Off, 8, at())
		fr.regs[in.Dst] = p.R.Obj.Slots[slot]
	case ir.OpStore:
		p := fr.val(in.Args[0])
		if !p.IsPtr() {
			return fmt.Errorf("store through non-pointer %s", p)
		}
		slot := p.R.Off / 8
		if slot < 0 || slot >= len(p.R.Obj.Slots) {
			return fmt.Errorf("store out of bounds: obj%d+%d", p.R.Obj.ID, p.R.Off)
		}
		p.R.Obj.Slots[slot] = fr.val(in.Args[1])
		ip.Hooks.OnWrite(p.R.Obj, p.R.Off, 8, at())
	case ir.OpFlush:
		p := fr.val(in.Args[0])
		if !p.IsPtr() {
			return fmt.Errorf("flush of non-pointer %s", p)
		}
		size := 8
		if len(in.Args) > 1 {
			size = int(fr.val(in.Args[1]).I)
		} else if p.R.T != nil {
			size = p.R.T.Size()
		} else if p.R.Off == 0 && p.R.Obj.Type != nil {
			size = p.R.Obj.Type.Size()
		}
		ip.Hooks.OnFlush(p.R.Obj, p.R.Off, size, at())
	case ir.OpFence:
		ip.Hooks.OnFence(at())
	case ir.OpTxBegin:
		ip.Hooks.OnTxBegin(at())
	case ir.OpTxEnd:
		ip.Hooks.OnTxEnd(at())
	case ir.OpTxAdd:
		p := fr.val(in.Args[0])
		if !p.IsPtr() {
			return fmt.Errorf("txadd of non-pointer %s", p)
		}
		size := 8
		if len(in.Args) > 1 {
			size = int(fr.val(in.Args[1]).I)
		} else if p.R.T != nil {
			size = p.R.T.Size()
		} else if p.R.Off == 0 && p.R.Obj.Type != nil {
			size = p.R.Obj.Type.Size()
		}
		ip.Hooks.OnTxAdd(p.R.Obj, p.R.Off, size, at())
	case ir.OpEpochBegin:
		ip.Hooks.OnEpochBegin(at())
	case ir.OpEpochEnd:
		ip.Hooks.OnEpochEnd(at())
	case ir.OpStrandBegin:
		ip.Hooks.OnStrandBegin(fr.val(in.Args[0]).I, at())
	case ir.OpStrandEnd:
		ip.Hooks.OnStrandEnd(fr.val(in.Args[0]).I, at())
	case ir.OpCall:
		args := make([]Val, len(in.Args))
		for i, a := range in.Args {
			args[i] = fr.val(a)
		}
		r, err := ip.Call(in.Callee, args...)
		if err != nil {
			return err
		}
		if in.Dst != "" {
			fr.regs[in.Dst] = r
		}
	case ir.OpMemCopy:
		dst, src := fr.val(in.Args[0]), fr.val(in.Args[1])
		n := int(fr.val(in.Args[2]).I)
		if !dst.IsPtr() || !src.IsPtr() {
			return fmt.Errorf("memcopy with non-pointer operands")
		}
		slots := (n + 7) / 8
		for i := 0; i < slots; i++ {
			ds, ss := dst.R.Off/8+i, src.R.Off/8+i
			if ds >= len(dst.R.Obj.Slots) || ss >= len(src.R.Obj.Slots) {
				return fmt.Errorf("memcopy out of bounds")
			}
			dst.R.Obj.Slots[ds] = src.R.Obj.Slots[ss]
		}
		site := at()
		ip.Hooks.OnRead(src.R.Obj, src.R.Off, n, site)
		ip.Hooks.OnWrite(dst.R.Obj, dst.R.Off, n, site)
	case ir.OpMemSet:
		dst := fr.val(in.Args[0])
		v := fr.val(in.Args[1])
		n := int(fr.val(in.Args[2]).I)
		if !dst.IsPtr() {
			return fmt.Errorf("memset of non-pointer")
		}
		slots := (n + 7) / 8
		for i := 0; i < slots; i++ {
			ds := dst.R.Off/8 + i
			if ds >= len(dst.R.Obj.Slots) {
				return fmt.Errorf("memset out of bounds")
			}
			dst.R.Obj.Slots[ds] = Val{I: v.I}
		}
		ip.Hooks.OnWrite(dst.R.Obj, dst.R.Off, n, at())
	default:
		return fmt.Errorf("unhandled opcode %s", in.Op)
	}
	return nil
}

// gepOffset computes the byte offset of a field/index access from the
// base pointer, using the object's type layout.
func (ip *Interp) gepOffset(base Val, in *ir.Instr, idx int64) (int, *ir.Type, error) {
	obj := base.R.Obj
	t := base.R.T
	if t == nil {
		t = ip.typeAt(obj.Type, base.R.Off)
	}
	t = ip.Module.ResolveType(t)
	if in.Field != "" {
		if t == nil || t.Kind != ir.KStruct {
			return 0, nil, fmt.Errorf("field %q of non-struct at obj%d+%d", in.Field, obj.ID, base.R.Off)
		}
		off := t.FieldOffset(in.Field)
		if off < 0 {
			return 0, nil, fmt.Errorf("no field %q in %s", in.Field, t)
		}
		return base.R.Off + off, ip.Module.ResolveType(t.FieldType(in.Field)), nil
	}
	if t == nil || t.Kind != ir.KArray {
		return 0, nil, fmt.Errorf("index of non-array at obj%d+%d", obj.ID, base.R.Off)
	}
	elem := t.Elem.Size()
	if idx < 0 || int(idx) >= t.Len {
		return 0, nil, fmt.Errorf("index %d out of range [0,%d)", idx, t.Len)
	}
	return base.R.Off + int(idx)*elem, ip.Module.ResolveType(t.Elem), nil
}

// typeAt resolves the type found at a byte offset within a root type.
func (ip *Interp) typeAt(t *ir.Type, off int) *ir.Type {
	t = ip.Module.ResolveType(t)
	if off == 0 {
		return t
	}
	switch t.Kind {
	case ir.KStruct:
		cur := 0
		for _, f := range t.Fields {
			sz := f.Type.Size()
			if off < cur+sz {
				return ip.typeAt(f.Type, off-cur)
			}
			cur += sz
		}
	case ir.KArray:
		elem := t.Elem.Size()
		return ip.typeAt(t.Elem, off%elem)
	}
	return nil
}

func binop(op string, a, b int64) (int64, error) {
	switch op {
	case "add":
		return a + b, nil
	case "sub":
		return a - b, nil
	case "mul":
		return a * b, nil
	case "div":
		if b == 0 {
			return 0, fmt.Errorf("division by zero")
		}
		return a / b, nil
	case "mod":
		if b == 0 {
			return 0, fmt.Errorf("modulo by zero")
		}
		return a % b, nil
	case "and":
		return a & b, nil
	case "or":
		return a | b, nil
	case "xor":
		return a ^ b, nil
	case "shl":
		return a << uint(b&63), nil
	case "shr":
		return int64(uint64(a) >> uint(b&63)), nil
	case "eq":
		return b2i(a == b), nil
	case "ne":
		return b2i(a != b), nil
	case "lt":
		return b2i(a < b), nil
	case "le":
		return b2i(a <= b), nil
	case "gt":
		return b2i(a > b), nil
	case "ge":
		return b2i(a >= b), nil
	}
	return 0, fmt.Errorf("unknown binop %q", op)
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}
