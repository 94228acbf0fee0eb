// Package checker implements DeepMC's static checker (paper §4.3): it
// applies the persistency-model checking rules of Table 4 and the
// performance rules of Table 5 to the traces collected by package trace.
//
// The user declares which memory persistency model the program intends to
// implement (the paper's -strict / -epoch / -strand compiler flag); the
// checker selects the corresponding rule set.  Performance rules apply
// under every model, as §3.3 describes.
package checker

import (
	"cmp"
	"fmt"
	"maps"
	"slices"
	"strings"

	"deepmc/internal/dsa"
	"deepmc/internal/ir"
	"deepmc/internal/pmcontract"
	"deepmc/internal/report"
	"deepmc/internal/trace"
)

// Model is the declared memory persistency model of an NVM program.
type Model uint8

const (
	// Strict persistency: every persistent store is made durable in
	// program order (write → flush → fence).
	Strict Model = iota
	// Epoch persistency: stores within an epoch may persist in any order;
	// epochs are ordered by persist barriers at their boundaries.
	Epoch
	// Strand persistency: like epoch, but independent strands may persist
	// concurrently; strands must not carry data dependences.
	Strand
)

// String returns the compiler-flag spelling of the model.
func (m Model) String() string {
	switch m {
	case Strict:
		return "strict"
	case Epoch:
		return "epoch"
	case Strand:
		return "strand"
	}
	return "unknown"
}

// ParseModel converts a -strict/-epoch/-strand flag value.
func ParseModel(s string) (Model, error) {
	switch s {
	case "strict":
		return Strict, nil
	case "epoch":
		return Epoch, nil
	case "strand":
		return Strand, nil
	}
	return Strict, fmt.Errorf("checker: unknown persistency model %q (want strict, epoch or strand)", s)
}

// Options configure a check run.
type Options struct {
	Model Model
	// Trace configures path exploration.
	Trace trace.Options
	// DSA configures the points-to analysis.
	DSA dsa.Options
	// AllFunctions also checks non-root functions standalone.  The
	// default (false) checks root traces only: callee code is covered
	// inline with caller context, as the paper's interprocedural merge
	// does, which avoids flagging callees whose callers persist for them.
	AllFunctions bool
	// Disabled suppresses emission of the given rules (disabled passes).
	// Gating happens at the warn sites only — the scanner's state
	// machine is shared across rules, so disabling a pass removes
	// exactly its diagnostics without perturbing any other rule.
	Disabled map[report.Rule]bool
	// Contract is the hardware persistency contract the rules derive
	// from.  The zero value is x86 (clwb/sfence), preserving every
	// pre-contract caller.  Under CXL with a persistence domain the
	// static scanner has no address layout, so a non-empty domain is
	// read as covering the whole persistent heap: writes are durable at
	// store time (suppressing unflushed-write), flushes become
	// flush-in-persist-domain perf findings, and the durability
	// obligation re-keys to the global persist barrier
	// (missing-global-barrier).  An empty-domain CXL contract scans
	// exactly like x86.
	Contract pmcontract.Contract
}

// DefaultOptions mirrors the paper's configuration.
func DefaultOptions(m Model) Options {
	return Options{Model: m, Trace: trace.DefaultOptions(), DSA: dsa.DefaultOptions()}
}

// Checker runs the static rules over one module.
type Checker struct {
	Opts      Options
	Analysis  *dsa.Analysis
	Collector *trace.Collector
}

// New prepares a checker: runs DSA and sets up trace collection.
func New(m *ir.Module, opts Options) *Checker {
	a := dsa.Analyze(m, opts.DSA)
	return &Checker{
		Opts:      opts,
		Analysis:  a,
		Collector: trace.NewCollector(a, opts.Trace),
	}
}

// Check is the convenience entry point: analyze m under the given model
// with default options.
func Check(m *ir.Module, model Model) *report.Report {
	return New(m, DefaultOptions(model)).CheckModule()
}

// CheckModule applies the rule set to every root function's merged traces
// (plus every function standalone if AllFunctions), deduplicating
// warnings by (rule, file, line).
func (c *Checker) CheckModule() *report.Report {
	rep := report.New()
	for _, f := range c.targetFunctions() {
		c.checkFunction(f.Name, rep)
	}
	rep.Sort()
	return rep
}

// targetFunctions returns the functions whose traces the rule set is
// applied to, in module declaration order.
func (c *Checker) targetFunctions() []*ir.Function {
	if !c.Opts.AllFunctions {
		return c.Analysis.CG.Roots()
	}
	var fns []*ir.Function
	for _, name := range c.Analysis.Module.FuncNames() {
		fns = append(fns, c.Analysis.Module.Funcs[name])
	}
	return fns
}

// checkFunction applies all enabled rules to each trace of fn, in
// collection order, adding findings to rep.  One scanner serves every
// trace of the function, and trace.Walk feeds it each chain node the
// traces share once.
func (c *Checker) checkFunction(fn string, rep *report.Report) {
	ts := c.Collector.Collect(fn)
	if len(ts) == 0 {
		return
	}
	trace.Walk(ts, c.newScanner(rep))
}

// newScanner returns a scanner that adds c's findings to rep.
func (c *Checker) newScanner(rep *report.Report) *scanner {
	return &scanner{
		checker:    c,
		rep:        rep,
		model:      c.Opts.Model,
		autoDomain: c.Opts.Contract.HasDomain(),
	}
}

// ---------------------------------------------------------------------------
// scanner: the per-trace rule state machine

// wrec tracks one persistent write awaiting durability.
type wrec struct {
	e        *trace.Entry
	covered  bool // a flush covered it, or its object was undo-logged
	domain   bool // durable at store time (CXL persistence domain)
	epochSeq int  // id of the enclosing epoch, -1 outside epochs
	txDepth  int  // transaction nesting depth at the write
}

// txFrame tracks one open transaction.
type txFrame struct {
	beginEntry    *trace.Entry
	logged        []dsa.Cell
	writes        int
	flushesPerObj map[*dsa.Node]int
	fenceLast     bool // the most recent persistency op inside was a fence
}

// objState summarizes the writes and flushes of one persistent object
// so far on the trace, keeping every per-entry check O(1)-ish: long
// interprocedurally-merged traces stay linear to scan.
type objState struct {
	node *dsa.Node
	// written lists the distinct field paths written ("" = whole
	// object), in first-write order.
	written []string
	// flushes holds the flush records still clean: a write overlapping a
	// record drops it (a dirty record never matches again).  A flush
	// whose field equals a kept record's is not recorded, because that
	// earlier record turns dirty with it and always matches first.
	flushes []flushRec
}

// flushRec is one seen flush with no overlapping write since.
type flushRec struct {
	field string
	e     *trace.Entry
}

// scanner runs the rules over the traces of one function as a
// trace.Consumer.  Its records point into the traces' runs, which are
// immutable, rather than copying entries.  Everything a rule reads
// between entries lives in its scanState, which depends only on the
// entries consumed since the trace began: that is what lets trace.Walk
// restart a trace from a state saved at a shared node.  Reset and
// Restore keep the maps and slices the state has grown.
type scanner struct {
	checker    *Checker
	rep        *report.Report
	model      Model
	autoDomain bool

	scanState
	// saved holds the states trace.Walk saves, by slot.
	saved []*scanState
	// Scratch space reused across barriers and region ends.
	epochs     map[int]bool
	cells      []dsa.Cell
	regionObjs []*dsa.Node
	strandIDs  []int64
}

// scanState is the rule state machine's state at one point of a trace.
type scanState struct {
	pending []wrec
	txStack []*txFrame
	// frames holds every transaction frame allocated so far; the frame
	// for nesting depth d is reused by each transaction opened at d.
	frames   []*txFrame
	epochSeq int // running epoch counter; -1 before any epoch
	inEpoch  bool
	// barrier bookkeeping: lastUnfenced is the most recent flush not yet
	// followed by a barrier (nil when there is none).
	lastUnfenced *trace.Entry
	// region bookkeeping for the semantic-mismatch rule: persistent
	// objects written by the previous and current tx/epoch region.  The
	// two maps swap at each region end; curRegion is meaningful only
	// while inRegion.
	prevRegion map[*dsa.Node]*trace.Entry
	curRegion  map[*dsa.Node]*trace.Entry
	inRegion   bool
	// epoch-barrier bookkeeping
	lastEpochEnd       *trace.Entry
	fenceSinceEpochEnd bool
	// strand bookkeeping (static WAW check)
	strandWrites map[int64][]*trace.Entry
	curStrand    int64
	// CXL-contract bookkeeping.  autoDomain: stores are durable at
	// store time (whole-heap persistence domain).  unbarriered tracks
	// domain writes not yet committed by a global persist barrier —
	// a device failure discards them (DMC-X02).
	unbarriered []*trace.Entry
	// objs summarizes each object's writes and flushes, keyed by
	// representative.  Reset empties the summaries but keeps them: the
	// traces of one function mostly touch the same objects.  touched
	// lists the summaries that are not empty, so Reset and copyFrom
	// visit only those.
	objs    map[*dsa.Node]*objState
	touched []*objState
}

// Restore begins a trace from the state saved in slot.
func (s *scanner) Restore(slot int) { s.copyFrom(s.saved[slot]) }

// Save records the current state in slot.
func (s *scanner) Save(slot int) {
	for len(s.saved) <= slot {
		s.saved = append(s.saved, new(scanState))
	}
	s.saved[slot].copyFrom(&s.scanState)
}

// Consume scans the next run of the current trace.
func (s *scanner) Consume(run []trace.Entry) {
	for i := range run {
		e := &run[i]
		switch e.Kind {
		case trace.KWrite:
			s.onWrite(e)
		case trace.KFlush:
			s.onFlush(e)
		case trace.KFence:
			s.onFence(e)
		case trace.KTxBegin:
			s.onTxBegin(e)
		case trace.KTxEnd:
			s.onTxEnd(e)
		case trace.KTxAdd:
			s.onTxAdd(e)
		case trace.KEpochBegin:
			s.onEpochBegin(e)
		case trace.KEpochEnd:
			s.onEpochEnd(e)
		case trace.KStrandBegin:
			s.curStrand = e.Strand
		case trace.KStrandEnd:
			s.curStrand = -1
		}
	}
}

// Reset returns the state to the start of a trace.
func (s *scanState) Reset() {
	s.pending = s.pending[:0]
	s.txStack = s.txStack[:0]
	s.epochSeq = -1
	s.inEpoch = false
	s.lastUnfenced = nil
	clear(s.prevRegion)
	s.inRegion = false
	s.lastEpochEnd = nil
	s.fenceSinceEpochEnd = true
	if s.strandWrites == nil {
		s.strandWrites = make(map[int64][]*trace.Entry)
	}
	clear(s.strandWrites)
	s.curStrand = -1
	s.unbarriered = s.unbarriered[:0]
	if s.objs == nil {
		s.objs = make(map[*dsa.Node]*objState)
	}
	for _, st := range s.touched {
		st.written, st.flushes = st.written[:0], st.flushes[:0]
	}
	s.touched = s.touched[:0]
}

// copyFrom makes s equal to o, reusing s's maps, slices and frames.
func (s *scanState) copyFrom(o *scanState) {
	s.Reset()
	s.pending = append(s.pending, o.pending...)
	for depth, f := range o.txStack {
		g := s.frame(depth)
		g.beginEntry, g.writes, g.fenceLast = f.beginEntry, f.writes, f.fenceLast
		g.logged = append(g.logged[:0], f.logged...)
		clear(g.flushesPerObj)
		maps.Copy(g.flushesPerObj, f.flushesPerObj)
		s.txStack = append(s.txStack, g)
	}
	s.epochSeq, s.inEpoch = o.epochSeq, o.inEpoch
	s.lastUnfenced = o.lastUnfenced
	s.prevRegion = copyRegion(s.prevRegion, o.prevRegion)
	if s.inRegion = o.inRegion; s.inRegion {
		s.curRegion = copyRegion(s.curRegion, o.curRegion)
	}
	s.lastEpochEnd, s.fenceSinceEpochEnd = o.lastEpochEnd, o.fenceSinceEpochEnd
	for id, ws := range o.strandWrites {
		s.strandWrites[id] = append(s.strandWrites[id], ws...)
	}
	s.curStrand = o.curStrand
	s.unbarriered = append(s.unbarriered, o.unbarriered...)
	for _, st := range o.touched {
		dst := s.obj(st.node)
		dst.written = append(dst.written, st.written...)
		dst.flushes = append(dst.flushes, st.flushes...)
	}
}

// copyRegion makes dst a copy of src, reusing dst.
func copyRegion(dst, src map[*dsa.Node]*trace.Entry) map[*dsa.Node]*trace.Entry {
	if dst == nil {
		dst = make(map[*dsa.Node]*trace.Entry, len(src))
	}
	clear(dst)
	maps.Copy(dst, src)
	return dst
}

// frame returns the transaction frame for nesting depth d, allocating
// it on first use.
func (s *scanState) frame(d int) *txFrame {
	if d == len(s.frames) {
		s.frames = append(s.frames, &txFrame{flushesPerObj: make(map[*dsa.Node]int)})
	}
	return s.frames[d]
}

// obj returns the summary of a representative object, creating it.
func (s *scanState) obj(n *dsa.Node) *objState {
	st := s.objs[n]
	if st == nil {
		st = &objState{node: n}
		s.objs[n] = st
	}
	if len(st.written) == 0 && len(st.flushes) == 0 {
		// Every caller fills the summary it asks for.
		s.touched = append(s.touched, st)
	}
	return st
}

func (s *scanner) warn(rule report.Rule, e *trace.Entry, format string, args ...any) {
	if s.checker.Opts.Disabled[rule] {
		return
	}
	s.rep.Add(report.Warning{
		Rule:    rule,
		Message: fmt.Sprintf(format, args...),
		Func:    e.At.Func,
		File:    e.At.File,
		Line:    e.At.Line,
	})
}

func (s *scanner) tx() *txFrame {
	if len(s.txStack) == 0 {
		return nil
	}
	return s.txStack[len(s.txStack)-1]
}

// loggedCovers reports whether any active transaction logged an object
// covering the cell (an undo-logged object is persisted at commit).
func (s *scanner) loggedCovers(c dsa.Cell) bool {
	for _, f := range s.txStack {
		for _, lc := range f.logged {
			if dsa.SameObject(lc, c) && dsa.FieldCovers(lc.Field, c.Field) {
				return true
			}
		}
	}
	return false
}

func (s *scanner) onWrite(e *trace.Entry) {
	st := s.obj(e.Cell.Obj.Find())
	if !slices.Contains(st.written, e.Cell.Field) {
		st.written = append(st.written, e.Cell.Field)
	}
	clean := st.flushes[:0]
	for _, r := range st.flushes {
		if !dsa.FieldsOverlap(r.field, e.Cell.Field) {
			clean = append(clean, r)
		}
	}
	st.flushes = clean
	s.pending = append(s.pending, wrec{
		e:        e,
		covered:  s.autoDomain || s.loggedCovers(e.Cell),
		domain:   s.autoDomain,
		epochSeq: s.currentEpoch(),
		txDepth:  len(s.txStack),
	})
	if s.autoDomain {
		// Durable at store time, but buffered device-side until the next
		// global persist barrier commits it: a device failure before then
		// discards it (DMC-X02, checked at barrier/commit/path end).
		s.unbarriered = append(s.unbarriered, e)
	}
	for _, f := range s.txStack {
		f.writes++
		f.fenceLast = false
	}
	if s.inRegion {
		if _, ok := s.curRegion[e.Cell.Obj]; !ok {
			s.curRegion[e.Cell.Obj] = e
		}
	}
	if s.curStrand >= 0 {
		s.strandWrites[s.curStrand] = append(s.strandWrites[s.curStrand], e)
	}
}

func (s *scanner) currentEpoch() int {
	if s.inEpoch {
		return s.epochSeq
	}
	return -1
}

func (s *scanner) onFlush(e *trace.Entry) {
	if s.autoDomain {
		// Inside a device persistence domain the store was durable the
		// moment it executed: the clwb writes back nothing and the flush
		// semantics the remaining bookkeeping models do not exist here.
		s.warn(report.RuleFlushInPersistDomain, e,
			"flush of %s targets the device persistence domain: the store was already durable at store time",
			cellDesc(e.Cell))
		return
	}
	// Cover pending writes.
	hadOverlapWrite := false
	for pi := range s.pending {
		w := &s.pending[pi]
		if dsa.SameObject(w.e.Cell, e.Cell) && dsa.FieldCovers(e.Cell.Field, w.e.Cell.Field) {
			w.covered = true
			hadOverlapWrite = true
		}
	}
	// Performance rule: writing back unmodified data.  A flush with no
	// overlapping write anywhere earlier in the trace is useless; a
	// whole-object flush whose preceding writes touch only some fields
	// writes back unmodified fields.
	obj := e.Cell.Obj.Find()
	st := s.obj(obj)
	overlapEver := hadOverlapWrite || anyOverlaps(st.written, e.Cell.Field)
	if !overlapEver {
		s.warn(report.RuleFlushUnmodified, e,
			"flush of %s which no preceding write modified", cellDesc(e.Cell))
	} else if e.Cell.Field == "" {
		if unmod := s.unmodifiedFields(obj, st.written); len(unmod) > 0 {
			s.warn(report.RuleFlushUnmodified, e,
				"flushing entire object %s though only some fields were modified (unmodified: %v)",
				cellDesc(e.Cell), unmod)
		}
	}
	// Performance rule: redundant write-backs — an earlier flush already
	// covered this storage and nothing overlapping was written since
	// (its record is still kept).
	for _, pf := range st.flushes {
		if !dsa.FieldsOverlap(pf.field, e.Cell.Field) {
			continue
		}
		s.warn(report.RuleRedundantFlush, e,
			"redundant flush of %s: already written back at %s:%d with no modification in between",
			cellDesc(e.Cell), pf.e.At.File, pf.e.At.Line)
		break
	}
	if !slices.ContainsFunc(st.flushes, func(r flushRec) bool { return r.field == e.Cell.Field }) {
		st.flushes = append(st.flushes, flushRec{field: e.Cell.Field, e: e})
	}
	// Transaction-scope persist accounting.
	if f := s.tx(); f != nil {
		f.flushesPerObj[e.Cell.Obj]++
		if f.flushesPerObj[e.Cell.Obj] == 2 {
			s.warn(report.RuleMultiplePersist, e,
				"object %s persisted multiple times within one transaction", cellDesc(e.Cell))
		}
		f.fenceLast = false
	}
	s.lastUnfenced = e
}

// anyOverlaps reports whether any written field path overlaps field.
func anyOverlaps(written []string, field string) bool {
	for _, wf := range written {
		if dsa.FieldsOverlap(wf, field) {
			return true
		}
	}
	return false
}

// unmodifiedFields lists top-level fields of the flushed object's struct
// type that no earlier write in the trace modified.  Unknown types yield
// nil (no warning — conservative against false positives).
func (s *scanner) unmodifiedFields(obj *dsa.Node, written []string) []string {
	if obj.TypeName == "" {
		return nil
	}
	t := s.checker.Analysis.Module.Types[obj.TypeName]
	if t == nil || len(t.Fields) < 2 {
		return nil
	}
	if slices.Contains(written, "") {
		return nil // whole-object write: everything modified
	}
	var unmod []string
	for _, f := range t.Fields {
		if !slices.ContainsFunc(written, func(wf string) bool { return topField(wf) == f.Name }) {
			unmod = append(unmod, f.Name)
		}
	}
	if len(unmod) == len(t.Fields) {
		// Nothing written at all: the flush-of-unmodified warning already
		// covers it.
		return nil
	}
	return unmod
}

func topField(path string) string {
	for i := 0; i < len(path); i++ {
		if path[i] == '.' {
			return path[:i]
		}
	}
	return path
}

func (s *scanner) onFence(e *trace.Entry) {
	switch s.model {
	case Strict:
		// Every pending write must have been flushed (or logged) by the
		// time its barrier executes.
		for _, w := range s.pending {
			if !w.covered && !s.loggedCovers(w.e.Cell) {
				s.warn(report.RuleUnflushedWrite, w.e,
					"write to %s reaches a persist barrier without a covering flush", cellDesc(w.e.Cell))
			}
		}
		// Strict persistency: one write per barrier (transactions batch
		// by design, so only check outside them).
		if len(s.txStack) == 0 {
			if n := s.distinctPendingCells(); n > 1 {
				s.warn(report.RuleMultipleWritesAtOnce, e,
					"%d writes made durable by a single persist barrier (strict persistency orders each store)", n)
			}
		}
		s.pending = s.pending[:0]
	case Epoch, Strand:
		// One barrier persisting the writes of several epochs means the
		// epoch boundaries were not individually enforced (the PMFS
		// "multiple writes made durable at once" bug).  Covered writes of
		// closed epochs stay pending until a fence retires them, so the
		// fence sees exactly which epochs it makes durable.
		if s.epochs == nil {
			s.epochs = make(map[int]bool)
		}
		epochs := s.epochs
		clear(epochs)
		for _, w := range s.pending {
			if w.domain {
				// Domain writes were durable at store time; the barrier
				// commits them but does not batch their persistence.
				continue
			}
			if w.epochSeq >= 0 && (w.covered || s.loggedCovers(w.e.Cell)) {
				epochs[w.epochSeq] = true
			}
		}
		if len(epochs) > 1 {
			s.warn(report.RuleMultipleWritesAtOnce, e,
				"one persist barrier made writes of %d epochs durable at once", len(epochs))
		}
		// The fence retires everything except writes of the still-open
		// epoch (their coverage window extends to its epochend); writes
		// outside any epoch behave strictly.
		kept := s.pending[:0]
		for _, w := range s.pending {
			if s.inEpoch && w.epochSeq == s.epochSeq {
				kept = append(kept, w)
				continue
			}
			if !w.covered && !s.loggedCovers(w.e.Cell) && w.epochSeq < 0 {
				s.warn(report.RuleUnflushedWrite, w.e,
					"write to %s reaches a persist barrier without a covering flush", cellDesc(w.e.Cell))
			}
		}
		s.pending = kept
	}
	s.lastUnfenced = nil
	s.fenceSinceEpochEnd = true
	// The global persist barrier commits every buffered domain write.
	s.unbarriered = s.unbarriered[:0]
	if f := s.tx(); f != nil {
		f.fenceLast = true
	}
}

// distinctPendingCells counts pending covered writes with pairwise-
// distinct cells.  Uncovered writes are excluded: they already produce an
// unflushed-write warning, and the barrier does not make them durable.
func (s *scanner) distinctPendingCells() int {
	cells := s.cells[:0]
	for _, w := range s.pending {
		if w.domain {
			// Durable at store time: the barrier does not persist it.
			continue
		}
		if !w.covered && !s.loggedCovers(w.e.Cell) {
			continue
		}
		dup := false
		for _, c := range cells {
			if dsa.MustAlias(c, w.e.Cell) {
				dup = true
				break
			}
		}
		if !dup {
			cells = append(cells, w.e.Cell)
		}
	}
	s.cells = cells
	return len(cells)
}

func (s *scanner) onTxBegin(e *trace.Entry) {
	// Strict persistency requires flushes to be fenced before the next
	// transaction begins (Figure 3 of the paper).
	if fl := s.lastUnfenced; s.model == Strict && fl != nil {
		s.warn(report.RuleMissingBarrier, fl,
			"flush of %s has no persist barrier before the next transaction begins", cellDesc(fl.Cell))
		s.lastUnfenced = nil
	}
	f := s.frame(len(s.txStack))
	f.beginEntry, f.logged, f.writes, f.fenceLast = e, f.logged[:0], 0, false
	clear(f.flushesPerObj)
	s.txStack = append(s.txStack, f)
	if len(s.txStack) == 1 {
		s.beginRegion()
	}
}

func (s *scanner) onTxEnd(e *trace.Entry) {
	f := s.tx()
	if f == nil {
		return // unbalanced; verifier-level concern
	}
	s.txStack = s.txStack[:len(s.txStack)-1]
	// Performance rule: a durable transaction without persistent writes
	// pays commit-time persistence for nothing.
	if f.writes == 0 {
		s.warn(report.RuleDurableTxNoWrite, f.beginEntry,
			"durable transaction contains no persistent writes")
	}
	// Epoch rule: a nested transaction must end with a persist barrier
	// before control returns to the outer transaction (Figure 4).
	if (s.model == Epoch || s.model == Strand) && len(s.txStack) >= 1 && !f.fenceLast {
		s.warn(report.RuleMissingBarrierNestedTx, e,
			"nested transaction ends without a persist barrier")
	}
	// Commit persists logged objects: cover the logged writes and fence.
	for pi := range s.pending {
		w := &s.pending[pi]
		if w.covered {
			continue
		}
		for _, lc := range f.logged {
			if dsa.SameObject(lc, w.e.Cell) && dsa.FieldCovers(lc.Field, w.e.Cell.Field) {
				w.covered = true
				break
			}
		}
	}
	// At commit of the outermost transaction, judge the writes made
	// inside it: unlogged, unflushed writes are not durable (Figure 2).
	// Commit includes a persist barrier, so buffered domain writes are
	// committed too (the same reading that clears lastUnfenced below).
	if len(s.txStack) == 0 {
		s.unbarriered = s.unbarriered[:0]
		kept := s.pending[:0]
		for _, w := range s.pending {
			if w.txDepth > 0 {
				if !w.covered {
					s.warn(report.RuleUnflushedWrite, w.e,
						"write to %s inside a transaction is neither undo-logged nor flushed", cellDesc(w.e.Cell))
				}
				continue
			}
			kept = append(kept, w)
		}
		s.pending = kept
		s.endRegion()
	}
	s.lastUnfenced = nil
}

func (s *scanner) onTxAdd(e *trace.Entry) {
	f := s.tx()
	if f == nil {
		return
	}
	f.logged = append(f.logged, e.Cell)
	// Logging covers pending writes to the object made before the TX_ADD
	// as well (conservative: commit writes back the whole object).
	for pi := range s.pending {
		w := &s.pending[pi]
		if !w.covered && dsa.SameObject(w.e.Cell, e.Cell) && dsa.FieldCovers(e.Cell.Field, w.e.Cell.Field) {
			w.covered = true
		}
	}
}

func (s *scanner) onEpochBegin(e *trace.Entry) {
	// Consecutive epochs need a barrier between them (Table 4).  When the
	// previous epoch left covered writes pending, the defect surfaces at
	// the eventual fence as "multiple writes made durable at once"; the
	// pure boundary violation is reported only when there is nothing
	// pending for that fence to expose.
	if (s.model == Epoch || s.model == Strand) && s.lastEpochEnd != nil && !s.fenceSinceEpochEnd {
		prevPending := false
		for _, w := range s.pending {
			if w.epochSeq >= 0 {
				prevPending = true
				break
			}
		}
		if !prevPending {
			s.warn(report.RuleMissingBarrierBetweenEpochs, s.lastEpochEnd,
				"epoch ends without a persist barrier before the next epoch begins")
		}
	}
	s.epochSeq++
	s.inEpoch = true
	if len(s.txStack) == 0 {
		s.beginRegion()
	}
}

func (s *scanner) onEpochEnd(e *trace.Entry) {
	// Judge the epoch's writes: everything stored in the epoch must have
	// been flushed (subset coverage) by its end.  Covered writes remain
	// pending until a fence retires them, so the fence can detect
	// multi-epoch batches.
	kept := s.pending[:0]
	for _, w := range s.pending {
		if w.epochSeq == s.epochSeq && !w.covered && !s.loggedCovers(w.e.Cell) {
			s.warn(report.RuleUnflushedWrite, w.e,
				"write to %s not flushed by the end of its epoch", cellDesc(w.e.Cell))
			continue
		}
		kept = append(kept, w)
	}
	s.pending = kept
	s.inEpoch = false
	s.lastEpochEnd = e
	s.fenceSinceEpochEnd = false
	if len(s.txStack) == 0 {
		s.endRegion()
	}
}

// beginRegion opens a semantic region (transaction or epoch) for the
// semantic-mismatch rule.
func (s *scanner) beginRegion() {
	if s.curRegion == nil {
		s.curRegion = make(map[*dsa.Node]*trace.Entry)
	}
	clear(s.curRegion)
	s.inRegion = true
}

// endRegion closes the current region and compares it with the previous
// one: consecutive regions writing to the same persistent object indicate
// that semantically-atomic updates were split across persistence units
// (the hashmap bug of Figure 1).
func (s *scanner) endRegion() {
	if !s.inRegion {
		return
	}
	// Iterate the region's objects in a deterministic order (first-write
	// location, then node id): the emission order decides which message
	// survives deduplication.
	objs := s.regionObjs[:0]
	for obj := range s.curRegion {
		objs = append(objs, obj)
	}
	slices.SortFunc(objs, func(x, y *dsa.Node) int {
		a, b := s.curRegion[x].At, s.curRegion[y].At
		if c := strings.Compare(a.File, b.File); c != 0 {
			return c
		}
		if c := cmp.Compare(a.Line, b.Line); c != 0 {
			return c
		}
		return cmp.Compare(x.ID(), y.ID())
	})
	for _, obj := range objs {
		e := s.curRegion[obj]
		if prev, ok := s.prevRegion[obj]; ok {
			s.warn(report.RuleSemanticMismatch, e,
				"consecutive transactions/epochs both write object %s (first written at %s:%d); the updates are not made durable atomically",
				nodeDesc(obj), prev.At.File, prev.At.Line)
		}
	}
	s.regionObjs = objs
	s.prevRegion, s.curRegion = s.curRegion, s.prevRegion
	s.inRegion = false
}

// End judges what the trace leaves open at its end.
func (s *scanner) End() {
	// Unflushed writes pending at the end of the program path.
	for _, w := range s.pending {
		if !w.covered && !s.loggedCovers(w.e.Cell) {
			s.warn(report.RuleUnflushedWrite, w.e,
				"write to %s never covered by a flush or undo log on this path", cellDesc(w.e.Cell))
		}
	}
	// Strict: flushes with no barrier at all before the path ends.
	if fl := s.lastUnfenced; s.model == Strict && fl != nil {
		s.warn(report.RuleMissingBarrier, fl,
			"flush of %s is never followed by a persist barrier on this path", cellDesc(fl.Cell))
	}
	// CXL: domain writes never committed by a global persist barrier are
	// rolled back by a device failure — the contract's re-keying of the
	// missing-barrier obligation (DMC-X02).
	for _, e := range s.unbarriered {
		s.warn(report.RuleMissingGlobalBarrier, e,
			"persistence-domain write to %s is never committed by a global persist barrier on this path (a device failure discards it)",
			cellDesc(e.Cell))
	}
	// Static strand rule: concurrent strands with overlapping writes
	// carry WAW dependences (Table 4's strand rule).
	if s.model == Strand {
		s.checkStrandOverlaps()
	}
}

func (s *scanner) checkStrandOverlaps() {
	ids := s.strandIDs[:0]
	for id := range s.strandWrites {
		ids = append(ids, id)
	}
	// Deterministic order: strand ids come from a map, so sort before
	// pairing — the emission order decides which message survives
	// deduplication.
	slices.Sort(ids)
	s.strandIDs = ids
	for i := 0; i < len(ids); i++ {
		for j := i + 1; j < len(ids); j++ {
			a, b := ids[i], ids[j]
			if a > b {
				a, b = b, a
			}
			for _, wa := range s.strandWrites[a] {
				for _, wb := range s.strandWrites[b] {
					if dsa.MayAlias(wa.Cell, wb.Cell) {
						s.warn(report.RuleStrandDependence, wb,
							"strands %d and %d both write %s: strands must be data-independent",
							a, b, cellDesc(wb.Cell))
					}
				}
			}
		}
	}
}

// cellDesc renders an abstract location for warning messages.
func cellDesc(c dsa.Cell) string {
	if c.Obj == nil {
		return "<unknown>"
	}
	return nodeDesc(c.Obj) + fieldSuffix(c.Field)
}

func nodeDesc(n *dsa.Node) string {
	r := n.Find()
	if r.TypeName != "" {
		return r.TypeName
	}
	return r.String()
}

func fieldSuffix(f string) string {
	if f == "" {
		return ""
	}
	return "." + f
}
