package dynamic

import (
	"deepmc/internal/interp"
	"deepmc/internal/ir"
	"deepmc/internal/pmcontract"
)

// Runtime adapts interpreter events to the runtime checker — it plays the
// role of the calls the instrumenter injects into the IR (step ⑤ of
// Figure 8).  Accesses outside annotated epoch/strand regions are not
// tracked when OnlyAnnotated is set, mirroring the paper's low-overhead
// instrumentation scope.  Transaction events carry nothing the
// happens-before checker uses, so they fall through to NopHooks.
type Runtime struct {
	interp.NopHooks
	Checker *Checker
	// OnlyAnnotated restricts tracking to code inside epoch or strand
	// regions (the paper's default).  When false every persistent access
	// is tracked (ablation: full instrumentation).
	OnlyAnnotated bool
	// Cov, when non-nil, accumulates the execution's persistency-event
	// edge coverage (site × strand transitions) — the feedback signal
	// the schedule fuzzer steers by.  Coverage sees every event the
	// checker would consider, including ones outside annotated regions,
	// so delay mutations that move events across region boundaries
	// still register.
	Cov *Coverage
	// Contract is the hardware persistency contract the execution
	// models; the zero value is x86 clwb/sfence.  Under a CXL contract
	// with a persistence domain (read as the whole persistent heap —
	// the runtime has no pool address space) every persistent store is
	// durable at store time, so writes are recorded pre-flushed and the
	// unflushed-RAW escalation (DMC-D03) cannot arise.
	Contract pmcontract.Contract

	curStrand   int64
	strandDepth int
	epochDepth  int

	shadowBase map[int]uint64
	shadowSize map[int]uint64
	overflow   map[shadowKey]uint64
	nextShadow uint64
}

// shadowKey interns shadow cells for offsets outside an object's
// contiguous region (negative, or past the slot array).
type shadowKey struct {
	obj int
	off int
}

// NewRuntime wires a fresh checker to an interpreter hook set.
func NewRuntime(onlyAnnotated bool) *Runtime {
	return &Runtime{
		Checker:       NewChecker(),
		OnlyAnnotated: onlyAnnotated,
		curStrand:     0,
		shadowBase:    make(map[int]uint64),
		shadowSize:    make(map[int]uint64),
		overflow:      make(map[shadowKey]uint64),
		nextShadow:    1 << 12, // keep address 0 unused
	}
}

var _ interp.Hooks = (*Runtime)(nil)
var _ interp.ContractHolder = (*Runtime)(nil)

// PersistencyContract exposes the modeled hardware contract so
// decorators (faultinj.Wrap) can keep injected behavior legal under it.
func (r *Runtime) PersistencyContract() pmcontract.Contract { return r.Contract }

// addrOf maps an (object, byte offset) pair to a shadow address for the
// happens-before checker.  Each object gets a contiguous region sized to
// its slot array on first touch, allocated from a bump pointer;
// out-of-range and negative offsets intern a fresh 8-byte cell.  The
// mapping is injective for every offset — the previous encoding
// (id<<32 | uint32(off)) truncated offsets to 32 bits, so two offsets
// 4 GiB apart (or a negative one) aliased to one shadow address and
// produced false happens-before conflicts.
func (r *Runtime) addrOf(obj *interp.Object, off int) uint64 {
	base, ok := r.shadowBase[obj.ID]
	if !ok {
		size := uint64(len(obj.Slots)) * 8
		if size == 0 {
			size = 8
		}
		base = r.nextShadow
		r.nextShadow += size
		r.shadowBase[obj.ID] = base
		r.shadowSize[obj.ID] = size
	}
	if off >= 0 && uint64(off) < r.shadowSize[obj.ID] {
		return base + uint64(off)
	}
	k := shadowKey{obj: obj.ID, off: off}
	a, ok := r.overflow[k]
	if !ok {
		a = r.nextShadow
		r.nextShadow += 8
		r.overflow[k] = a
	}
	return a
}

func (r *Runtime) tracked() bool {
	return !r.OnlyAnnotated || r.strandDepth > 0 || r.epochDepth > 0
}

// OnWrite records each 8-byte granule of the write.
func (r *Runtime) OnWrite(obj *interp.Object, off, size int, at *ir.Site) {
	if r.Cov != nil {
		r.Cov.hit(at, covWrite, r.curStrand)
	}
	if !r.tracked() {
		return
	}
	autoPersist := obj.Persistent && r.Contract.HasDomain()
	for g := 0; g < size; g += 8 {
		a := r.addrOf(obj, off+g)
		r.Checker.Write(r.curStrand, a, obj.Persistent, at)
		if autoPersist {
			// In-domain stores are durable at store time: record the
			// granule flushed immediately so a racing read is ordinary
			// RAW (DMC-D02), never unflushed RAW (DMC-D03).
			r.Checker.Flush(r.curStrand, a, obj.Persistent, at)
		}
	}
}

// OnRead records each 8-byte granule of the read.
func (r *Runtime) OnRead(obj *interp.Object, off, size int, at *ir.Site) {
	if r.Cov != nil {
		r.Cov.hit(at, covRead, r.curStrand)
	}
	if !r.tracked() {
		return
	}
	for g := 0; g < size; g += 8 {
		r.Checker.Read(r.curStrand, r.addrOf(obj, off+g), obj.Persistent, at)
	}
}

// OnFlush marks each covered granule's pending write as flushed, so a
// later racing read is ordinary RAW rather than unflushed RAW
// (DMC-D03).  A delayed (deferred-to-fence) flush therefore widens the
// window in which reads observe never-flushed data — exactly the state
// the schedule fuzzer's delay injection hunts for.
func (r *Runtime) OnFlush(obj *interp.Object, off, size int, at *ir.Site) {
	if r.Cov != nil {
		r.Cov.hit(at, covFlush, r.curStrand)
	}
	if !r.tracked() {
		return
	}
	for g := 0; g < size; g += 8 {
		r.Checker.Flush(r.curStrand, r.addrOf(obj, off+g), obj.Persistent, at)
	}
}

// OnFence outside strand regions orders all strands (a global persist
// barrier); inside a strand it only orders that strand's own persists,
// which the per-strand clock already captures.
func (r *Runtime) OnFence(at *ir.Site) {
	if r.Cov != nil {
		r.Cov.hit(at, covFence, r.curStrand)
	}
	if r.strandDepth == 0 {
		r.Checker.GlobalFence()
	}
}

func (r *Runtime) OnEpochBegin(*ir.Site) { r.epochDepth++ }
func (r *Runtime) OnEpochEnd(*ir.Site) {
	if r.epochDepth > 0 {
		r.epochDepth--
	}
}

func (r *Runtime) OnStrandBegin(id int64, at *ir.Site) {
	r.curStrand = id
	r.strandDepth++
	if r.Cov != nil {
		r.Cov.hit(at, covStrand, id)
	}
	r.Checker.StrandBegin(id)
}

func (r *Runtime) OnStrandEnd(id int64, at *ir.Site) {
	if r.Cov != nil {
		r.Cov.hit(at, covStrand, -id)
	}
	r.Checker.StrandEnd(id)
	if r.strandDepth > 0 {
		r.strandDepth--
	}
	if r.strandDepth == 0 {
		r.curStrand = 0
	}
}
