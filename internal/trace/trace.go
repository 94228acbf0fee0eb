// Package trace implements DeepMC's trace collection (paper §4.3).
//
// A trace is the sequence of persistency-relevant operations — persistent
// writes, cacheline flushes, persist barriers, transaction/epoch/strand
// markers — along one control-flow path of a function, with callee traces
// merged into call sites (Figure 11 of the paper).  The collector:
//
//   - walks each function's CFG depth-first, bounding loop iterations
//     (default 10 visits per block, as in the paper) and the total number
//     of explored paths;
//   - prioritizes paths that contain persistent operations, using the
//     DSG's knowledge of which blocks touch persistent objects;
//   - keeps only operations whose target the DSA proved to live in NVM;
//   - merges callee traces into caller traces in call-graph post-order,
//     translating callee abstract locations into the caller's context
//     through the per-call-site DSA clone mappings.
package trace

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"deepmc/internal/cfg"
	"deepmc/internal/dsa"
	"deepmc/internal/ir"
)

// Kind classifies trace entries.
type Kind uint8

const (
	// KWrite is a persistent store (store/memcopy/memset to NVM).
	KWrite Kind = iota
	// KFlush is a cacheline write-back of persistent storage.
	KFlush
	// KFence is a persist barrier.
	KFence
	// KTxBegin / KTxEnd / KTxAdd are transaction markers.
	KTxBegin
	KTxEnd
	KTxAdd
	// KEpochBegin / KEpochEnd are epoch boundaries.
	KEpochBegin
	KEpochEnd
	// KStrandBegin / KStrandEnd are strand boundaries.
	KStrandBegin
	KStrandEnd
)

var kindNames = [...]string{
	KWrite: "write", KFlush: "flush", KFence: "fence",
	KTxBegin: "txbegin", KTxEnd: "txend", KTxAdd: "txadd",
	KEpochBegin: "epochbegin", KEpochEnd: "epochend",
	KStrandBegin: "strandbegin", KStrandEnd: "strandend",
}

func (k Kind) String() string { return kindNames[k] }

// Entry is one persistency-relevant operation in a trace.
type Entry struct {
	Kind Kind
	// Cell is the abstract location for write/flush/txadd entries,
	// expressed in the root function's DSG context.
	Cell dsa.Cell
	// At locates the operation in its defining function (callee
	// locations survive merging).
	At *ir.Site
	// Strand is the strand id for strand markers (-1 if dynamic).
	Strand int64
}

// String renders the entry for diagnostics.
func (e Entry) String() string {
	switch e.Kind {
	case KWrite, KFlush, KTxAdd:
		return fmt.Sprintf("%s %s @%s:%d", e.Kind, e.Cell, e.At.File, e.At.Line)
	case KStrandBegin, KStrandEnd:
		return fmt.Sprintf("%s %d @%s:%d", e.Kind, e.Strand, e.At.File, e.At.Line)
	default:
		return fmt.Sprintf("%s @%s:%d", e.Kind, e.At.File, e.At.Line)
	}
}

// Trace is one merged path through a function.
//
// A collected trace keeps the shared-prefix chain the explorer built it
// from, and Entries stays nil until the trace leaves the collector
// through FunctionTraces, which fills it from the chain once.  The
// pipeline itself never fills: callee splicing links translated chains,
// the rule scan reads a function's traces through Walk, and the analysis
// cache stores traces unfilled.  A trace constructed with Entries and no
// chain reads as a single run.
type Trace struct {
	Func    string
	Entries []Entry

	path *path
	fill sync.Once
}

// Runs calls yield with the trace's entries in order, as consecutive
// runs that other traces may share (callers must not modify them),
// until yield returns false.  It never fills Entries.
func (t *Trace) Runs(yield func(run []Entry) bool) {
	if t.path == nil {
		if len(t.Entries) > 0 {
			yield(t.Entries)
		}
		return
	}
	t.path.each(yield)
}

// len returns the number of entries on the trace without filling them.
func (t *Trace) len() int {
	if t.path == nil {
		return len(t.Entries)
	}
	return t.path.n
}

// fillEntries materializes a chain-backed trace's Entries, once.  A
// trace can be reachable from several collectors at once (through a
// shared artifact cache), so the fill is guarded by its own Once rather
// than by any collector's mutex.
func (t *Trace) fillEntries() {
	t.fill.Do(func() {
		if t.path != nil {
			t.Entries = t.path.entries()
		}
	})
}

// String renders the whole trace, one entry per line.
func (t *Trace) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "trace of %s:\n", t.Func)
	t.Runs(func(run []Entry) bool {
		for _, e := range run {
			fmt.Fprintf(&b, "  %s\n", e.String())
		}
		return true
	})
	return b.String()
}

// PersistentOps counts write/flush entries (used for prioritization).
func (t *Trace) PersistentOps() int {
	if t.path != nil {
		return t.path.ops
	}
	return persistentOps(t.Entries)
}

func persistentOps(run []Entry) int {
	n := 0
	for i := range run {
		if k := run[i].Kind; k == KWrite || k == KFlush {
			n++
		}
	}
	return n
}

// Options bound the exploration.
type Options struct {
	// LoopIterations caps how many times one block may appear on a single
	// path (the paper's "small number of paths for loop iterations",
	// default 10).
	LoopIterations int
	// MaxPaths caps the number of distinct paths explored per function.
	MaxPaths int
	// MaxCalleeVariants caps how many callee trace variants are spliced
	// into each call site (keeps the cross product bounded).
	MaxCalleeVariants int
	// PrioritizePersistent explores successors that reach persistent
	// operations first, as the paper describes; the ablation bench turns
	// it off.
	PrioritizePersistent bool
	// MaxTraceEntries caps one merged trace's length; longer paths are
	// analyzed up to the cap (the bounded-exploration analogue of the
	// paper's loop and recursion limits, keeping rule checking linear on
	// interprocedurally merged code).
	MaxTraceEntries int
	// Cancelled, when non-nil, is polled during path exploration; once
	// it returns true the walk stops forking and returns the paths
	// collected so far.  The partial trace set is still memoized —
	// callers that cancel must treat every downstream finding set as
	// partial (core.AnalyzeCtx annotates the report).
	Cancelled func() bool
}

// DefaultOptions mirrors the paper's defaults.
func DefaultOptions() Options {
	return Options{
		LoopIterations:       10,
		MaxPaths:             64,
		MaxCalleeVariants:    4,
		PrioritizePersistent: true,
		MaxTraceEntries:      4096,
	}
}

// Collector memoizes merged traces per function over one DSA result.
// It is safe for concurrent use: the memo is mutex-guarded, the
// computation itself works on chain-local state, and the per-function
// result is deterministic, so racing chains that duplicate a
// computation converge on identical traces (first writer wins).
type Collector struct {
	Analysis *dsa.Analysis
	Opts     Options

	mu   sync.Mutex
	memo map[string][]*Trace
	// computed records the functions this collector explored itself, as
	// opposed to memo entries installed by Seed — the observable the
	// incremental-cache tests assert on ("exactly the mutated function's
	// artifacts were recomputed").
	computed map[string]bool
	// truncated records the functions whose merged traces hit the
	// trace-entry budget (MaxTraceEntries), directly or through a
	// truncated callee splice.  Their traces cover only a bounded prefix
	// of the function's behavior, so downstream verdicts must be
	// reported as partial (budget-attributed skips), never memoized as
	// complete.
	truncated map[string]bool
}

// NewCollector creates a collector over a finished DSA.
func NewCollector(a *dsa.Analysis, opts Options) *Collector {
	if opts.LoopIterations <= 0 {
		opts.LoopIterations = 1
	}
	if opts.MaxPaths <= 0 {
		opts.MaxPaths = 1
	}
	if opts.MaxCalleeVariants <= 0 {
		opts.MaxCalleeVariants = 1
	}
	if opts.MaxTraceEntries <= 0 {
		opts.MaxTraceEntries = 4096
	}
	return &Collector{
		Analysis:  a,
		Opts:      opts,
		memo:      make(map[string][]*Trace),
		computed:  make(map[string]bool),
		truncated: make(map[string]bool),
	}
}

// Seed installs externally memoized traces for fn — the warm path of a
// content-addressed artifact cache.  Subsequent FunctionTraces calls
// return them without path exploration.  The traces must come from an
// identical (function closure, DSA options, trace options) fingerprint:
// entries reference the abstract cells of the run that produced them,
// which is sound because rule scanning compares cells only within one
// trace set.  truncated must carry the producing run's budget flag so a
// warm scan degrades exactly like the cold one did.  A seed never
// overwrites an already-computed entry.
func (c *Collector) Seed(fn string, ts []*Trace, truncated bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.memo[fn]; !ok {
		c.memo[fn] = ts
		if truncated {
			c.truncated[fn] = true
		}
	}
}

// Truncated reports whether fn's memoized traces hit the trace-entry
// budget (directly or via a truncated callee): its findings cover a
// bounded prefix only.  False for functions not yet collected.
func (c *Collector) Truncated(fn string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.truncated[fn]
}

// ComputedFuncs returns (sorted) the functions whose traces this
// collector actually explored, excluding seeded entries.
func (c *Collector) ComputedFuncs() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]string, 0, len(c.computed))
	for fn := range c.computed {
		out = append(out, fn)
	}
	sort.Strings(out)
	return out
}

// SetCancelled installs the cancellation poll (Options.Cancelled) on an
// existing collector.  Install it before fanning out workers; the field
// write is not synchronized against concurrent FunctionTraces calls.
func (c *Collector) SetCancelled(f func() bool) { c.Opts.Cancelled = f }

// FunctionTraces returns the merged traces of the named function, most
// persistent-heavy first, with their Entries filled.  The traces are the
// memo's own objects: repeated calls return the same pointers.
func (c *Collector) FunctionTraces(fn string) []*Trace {
	ts := c.Collect(fn)
	for _, t := range ts {
		t.fillEntries()
	}
	return ts
}

// Collect is FunctionTraces without filling Entries: the traces are read
// through Runs.  Every consumer inside the pipeline uses it.
func (c *Collector) Collect(fn string) []*Trace {
	return c.collect(fn, make(map[string]bool))
}

// collect computes (or recalls) one function's traces.  visiting tracks
// the functions on the current recursive descent — one chain of calls
// within a single goroutine — so recursion cycles are cut off without
// mistaking another goroutine's in-flight computation for a cycle.
func (c *Collector) collect(fn string, visiting map[string]bool) []*Trace {
	c.mu.Lock()
	ts, ok := c.memo[fn]
	c.mu.Unlock()
	if ok {
		return ts
	}
	f := c.Analysis.Module.Funcs[fn]
	if f == nil {
		return nil
	}
	if visiting[fn] {
		// Recursion cycle: cut it off (the paper bounds recursion; a
		// cycle member sees its callees-in-cycle as opaque).
		return nil
	}
	visiting[fn] = true
	defer delete(visiting, fn)

	// A function whose CFG cannot be built (malformed branch targets in
	// hand-written PIR) is treated as opaque — no traces — rather than
	// panicking out of a batch analysis.
	g, err := cfg.New(f)
	if err != nil {
		return nil
	}
	dsg := c.Analysis.Graph(fn)
	e := &explorer{c: c, f: f, g: g, dsg: dsg, visiting: visiting, steps: make(map[*ir.Block][]step)}
	e.reach = e.computeReach()
	var paths []*Trace
	if entry := g.Entry(); entry != nil {
		e.walk(entry, nil, make(map[string]int), &paths)
	}
	// Prioritize persistent-op-heavy traces (stable by construction order).
	sortTraces(paths)
	c.mu.Lock()
	if existing, done := c.memo[fn]; done {
		// Another chain published first.  The computation is a pure
		// function of (module, DSA, options), so both results are
		// identical; keep the canonical copy.
		paths = existing
	} else {
		c.memo[fn] = paths
		c.computed[fn] = true
		if e.truncated {
			c.truncated[fn] = true
		}
	}
	c.mu.Unlock()
	return paths
}

// sortTraces orders traces by descending persistent-op count, stable.
// The counts are read off the chains, before the insertion sort.
func sortTraces(ts []*Trace) {
	keys := make([]int, len(ts))
	for i, t := range ts {
		keys[i] = t.PersistentOps()
	}
	for i := 1; i < len(ts); i++ {
		for j := i; j > 0 && keys[j] > keys[j-1]; j-- {
			ts[j], ts[j-1] = ts[j-1], ts[j]
			keys[j], keys[j-1] = keys[j-1], keys[j]
		}
	}
}

// path is a trace under construction: an immutable chain of read-only
// nodes, newest last.  A node holds a run of entries or, in place of a
// run, a whole spliced chain: a callee trace translated into the
// caller's DSG context.  Paths that fork share their common prefix and
// every continuation of a call site links the same translated chain, so
// extending a path never copies entries, and a finished trace keeps its
// path; only FunctionTraces copies it, by entries.  The nil path is the
// empty prefix.
type path struct {
	prev *path
	run  []Entry
	sub  *path // the spliced chain, when the node holds no run
	n    int   // total entries along the chain
	ops  int   // write/flush entries along the chain (PersistentOps)
}

// len returns the number of entries on the path.
func (p *path) len() int {
	if p == nil {
		return 0
	}
	return p.n
}

// extend links run onto p.  The run must never be written again: other
// paths may share it.
func (p *path) extend(run []Entry) *path {
	if len(run) == 0 {
		return p
	}
	ops := persistentOps(run)
	if p != nil {
		ops += p.ops
	}
	return &path{prev: p, run: run, n: p.len() + len(run), ops: ops}
}

// splice links the whole chain sub onto p as one node.
func (p *path) splice(sub *path) *path {
	if sub.len() == 0 {
		return p
	}
	ops := sub.ops
	if p != nil {
		ops += p.ops
	}
	return &path{prev: p, sub: sub, n: p.len() + sub.n, ops: ops}
}

// each yields the chain's runs oldest first; it reports whether the
// consumer wants more.
func (p *path) each(yield func([]Entry) bool) bool {
	if p == nil {
		return true
	}
	return p.prev.each(yield) && p.own(yield)
}

// own yields the node's own entries: its run, or the runs of its
// spliced chain.
func (p *path) own(yield func([]Entry) bool) bool {
	if p.sub != nil {
		return p.sub.each(yield)
	}
	return yield(p.run)
}

// entries materializes the path in one exact-size allocation.  The
// empty path yields nil.
func (p *path) entries() []Entry {
	if p.len() == 0 {
		return nil
	}
	out := make([]Entry, p.n)
	p.fill(out)
	return out
}

// fill copies the path's first len(out) entries into out, back to
// front, descending into spliced chains.
func (p *path) fill(out []Entry) {
	for q := p; q != nil; q = q.prev {
		lo := q.prev.len()
		if lo >= len(out) {
			continue
		}
		if q.sub != nil {
			q.sub.fill(out[lo:min(q.n, len(out))])
		} else {
			copy(out[lo:], q.run)
		}
	}
}

// step is one stage of a block's expansion: a run of consecutive
// non-call entries, or one call site.
type step struct {
	run  []Entry
	call *ir.Instr
	ref  ir.InstrRef
	// variants memoizes calleeVariants for the call site once resolved:
	// a loop body is revisited up to LoopIterations times, and the
	// translated callee chains are the same on every visit.
	variants []*path
	resolved bool
}

// explorer enumerates paths through one function.
type explorer struct {
	c   *Collector
	f   *ir.Function
	g   *cfg.Graph
	dsg *dsa.Graph
	// visiting is the enclosing chain's recursion guard, threaded through
	// to callee collections.
	visiting map[string]bool
	// reach[block] reports whether any persistent op is reachable from
	// the block within this function (prioritization metric).
	reach map[string]bool
	// steps memoizes each block's expansion plan (blockSteps).
	steps map[*ir.Block][]step
	// runBuf is blockSteps' scratch buffer for a run being gathered.
	runBuf []Entry
	// truncated latches when any continuation hits the trace-entry
	// budget, or a spliced callee's traces were themselves truncated.
	truncated bool
}

// computeReach marks blocks from which a persistent operation is
// reachable, used to order successor exploration.
func (e *explorer) computeReach() map[string]bool {
	r := make(map[string]bool, len(e.g.Nodes))
	// A block "has" a persistent op if any store/flush/txadd in it touches
	// a persistent cell, or it contains a call (callees may persist).
	has := func(b *ir.Block) bool {
		for i := range b.Instrs {
			in := &b.Instrs[i]
			switch in.Op {
			case ir.OpStore, ir.OpFlush, ir.OpTxAdd, ir.OpMemCopy, ir.OpMemSet:
				if cell := e.cellOf(in.Args[0]); cell.IsPtr() && cell.Obj.Persistent() {
					return true
				}
			case ir.OpCall, ir.OpFence, ir.OpTxBegin, ir.OpTxEnd,
				ir.OpEpochBegin, ir.OpEpochEnd, ir.OpStrandBegin, ir.OpStrandEnd:
				return true
			}
		}
		return false
	}
	for changed := true; changed; {
		changed = false
		for _, n := range e.g.Nodes {
			if r[n.Block.Name] {
				continue
			}
			if has(n.Block) {
				r[n.Block.Name] = true
				changed = true
				continue
			}
			for _, s := range n.Succs {
				if r[s.Block.Name] {
					r[n.Block.Name] = true
					changed = true
					break
				}
			}
		}
	}
	return r
}

func (e *explorer) cellOf(v ir.Value) dsa.Cell {
	if r, ok := v.(ir.Reg); ok {
		return e.dsg.RegCell(r.Name)
	}
	return dsa.Cell{}
}

// walk explores paths depth-first.  prefix holds entries accumulated so
// far; visits counts block occurrences on the current path.
func (e *explorer) walk(n *cfg.Node, prefix *path, visits map[string]int, out *[]*Trace) {
	if len(*out) >= e.c.Opts.MaxPaths {
		return
	}
	if e.c.Opts.Cancelled != nil && e.c.Opts.Cancelled() {
		return
	}
	name := n.Block.Name
	if visits[name] >= e.c.Opts.LoopIterations {
		return
	}
	visits[name]++
	defer func() { visits[name]-- }()

	// Expanding the block may fork the path at call sites with several
	// callee variants, so block expansion yields a list of continuations.
	conts := e.expandBlock(n.Block, prefix)
	succs := e.orderedSuccs(n)
	for _, cont := range conts {
		if len(succs) == 0 {
			// Path ends here (ret).
			*out = append(*out, &Trace{Func: e.f.Name, path: cont})
			if len(*out) >= e.c.Opts.MaxPaths {
				return
			}
			continue
		}
		for _, s := range succs {
			e.walk(s, cont, visits, out)
			if len(*out) >= e.c.Opts.MaxPaths {
				return
			}
		}
	}
}

// orderedSuccs returns successors, persistent-reaching first when
// prioritization is on.
func (e *explorer) orderedSuccs(n *cfg.Node) []*cfg.Node {
	succs := n.Succs
	if !e.c.Opts.PrioritizePersistent || len(succs) < 2 {
		return succs
	}
	r := e.reach
	ordered := make([]*cfg.Node, 0, len(succs))
	for _, s := range succs {
		if r[s.Block.Name] {
			ordered = append(ordered, s)
		}
	}
	for _, s := range succs {
		if !r[s.Block.Name] {
			ordered = append(ordered, s)
		}
	}
	return ordered
}

// expandBlock extends prefix by the block's entries.  Call sites to
// defined callees splice in callee traces (several variants fork the
// path).  It returns all resulting continuations.
func (e *explorer) expandBlock(b *ir.Block, prefix *path) []*path {
	cap := e.c.Opts.MaxTraceEntries
	conts := []*path{prefix}
	steps := e.blockSteps(b)
	for si := range steps {
		st := &steps[si]
		if st.call == nil {
			// The same entries extend every continuation, up to the room
			// each has left; any entry that does not fit is dropped.
			for ci, cont := range conts {
				room := cap - cont.len()
				if room < len(st.run) {
					e.truncated = true
				} else {
					room = len(st.run)
				}
				conts[ci] = cont.extend(st.run[:room])
			}
			continue
		}
		variants := e.calleeVariants(st)
		if len(variants) == 0 {
			continue
		}
		var next []*path
		for _, cont := range conts {
			for _, v := range variants {
				if cont.len() >= cap {
					// The path already hit the entry budget; keep it
					// as-is instead of splicing further callees.
					e.truncated = true
					next = append(next, cont)
					break
				}
				room := cap - cont.len()
				if room >= v.len() {
					next = append(next, cont.splice(v))
				} else {
					// Only a prefix of the callee trace fits: flatten
					// that prefix into a run of its own.
					e.truncated = true
					prefix := make([]Entry, room)
					v.fill(prefix)
					next = append(next, cont.extend(prefix))
				}
				if len(next) >= e.c.Opts.MaxPaths {
					break
				}
			}
			if len(next) >= e.c.Opts.MaxPaths {
				break
			}
		}
		conts = next
	}
	return conts
}

// blockSteps returns the block's expansion plan: its non-call entries
// grouped into one run between consecutive call sites, and the call
// sites themselves, in instruction order.  Entries depend only on the
// instruction and the DSG, so the plan is built once per block.
func (e *explorer) blockSteps(b *ir.Block) []step {
	if steps, ok := e.steps[b]; ok {
		return steps
	}
	var steps []step
	// Runs are gathered in a reused buffer and stored at exact size:
	// finished traces retain them through their chains.
	run := e.runBuf[:0]
	flushRun := func() {
		if len(run) > 0 {
			steps = append(steps, step{run: append(make([]Entry, 0, len(run)), run...)})
			run = run[:0]
		}
	}
	for i := range b.Instrs {
		in := &b.Instrs[i]
		if in.Op == ir.OpCall {
			flushRun()
			steps = append(steps, step{call: in, ref: ir.InstrRef{Func: e.f.Name, Block: b.Name, Index: i}})
			continue
		}
		if entry, ok := e.entryFor(in); ok {
			run = append(run, entry)
		}
	}
	flushRun()
	e.runBuf = run
	e.steps[b] = steps
	return steps
}

// calleeVariants returns the call site's first MaxCalleeVariants callee
// traces as chains translated into this function's DSG context.  The
// result is memoized on the step, and one translator serves all of the
// site's variants, so a prefix or spliced chain they share is
// translated once.
func (e *explorer) calleeVariants(st *step) []*path {
	if st.resolved {
		return st.variants
	}
	st.resolved = true
	callee := st.call.Callee
	if _, defined := e.c.Analysis.Module.Funcs[callee]; !defined {
		return nil
	}
	calleeTraces := e.c.collect(callee, e.visiting)
	if e.c.Truncated(callee) {
		// The splice inherits the callee's budget exhaustion: the merged
		// caller trace covers only a prefix of the callee's behavior.
		e.truncated = true
	}
	if len(calleeTraces) == 0 {
		return nil
	}
	limit := e.c.Opts.MaxCalleeVariants
	if limit > len(calleeTraces) {
		limit = len(calleeTraces)
	}
	x := translator{mapping: e.dsg.CallMaps[st.ref], memo: make(map[*path]*path)}
	st.variants = make([]*path, 0, limit)
	for _, t := range calleeTraces[:limit] {
		if t.path == nil {
			// A trace built with Entries and no chain is one run.
			st.variants = append(st.variants, (*path)(nil).extend(x.run(t.Entries)))
			continue
		}
		st.variants = append(st.variants, x.chain(t.path))
	}
	return st.variants
}

// translator maps callee chain nodes into one call site's DSG context.
// Each node is translated once (memo), so the variants of the site that
// share a prefix, or splice the same deeper chain, share its
// translation.
type translator struct {
	mapping map[*dsa.Node]*dsa.Node
	memo    map[*path]*path
}

// chain returns the translation of the chain ending at p.
func (x *translator) chain(p *path) *path {
	if p == nil {
		return nil
	}
	if t, ok := x.memo[p]; ok {
		return t
	}
	t := &path{prev: x.chain(p.prev), n: p.n, ops: p.ops}
	if p.sub != nil {
		t.sub = x.chain(p.sub)
	} else {
		t.run = x.run(p.run)
	}
	x.memo[p] = t
	return t
}

// run returns a translated copy of run.
func (x *translator) run(run []Entry) []Entry {
	out := make([]Entry, len(run))
	for i, e := range run {
		e.Cell = translateCell(e.Cell, x.mapping)
		out[i] = e
	}
	return out
}

// translateCell maps a callee-context cell into the caller's context via
// the DSA clone mapping; unmapped cells (recursion cut-offs) pass through.
func translateCell(c dsa.Cell, mapping map[*dsa.Node]*dsa.Node) dsa.Cell {
	if c.Obj == nil || mapping == nil {
		return c
	}
	if t, ok := mapping[c.Obj.Find()]; ok {
		return dsa.Cell{Obj: t.Find(), Field: c.Field}.Norm()
	}
	if t, ok := mapping[c.Obj]; ok {
		return dsa.Cell{Obj: t.Find(), Field: c.Field}.Norm()
	}
	return c
}

// entryFor converts one instruction to a trace entry.  Writes, flushes
// and txadds to non-persistent storage are dropped, as in the paper.
func (e *explorer) entryFor(in *ir.Instr) (Entry, bool) {
	base := Entry{At: e.f.Site(in.Line), Strand: -1}
	persistentTarget := func(v ir.Value) (dsa.Cell, bool) {
		cell := e.cellOf(v)
		if !cell.IsPtr() || !cell.Obj.Persistent() {
			return dsa.Cell{}, false
		}
		return cell, true
	}
	switch in.Op {
	case ir.OpStore, ir.OpMemCopy, ir.OpMemSet:
		cell, ok := persistentTarget(in.Args[0])
		if !ok {
			return Entry{}, false
		}
		base.Kind = KWrite
		base.Cell = cell
		return base, true
	case ir.OpFlush:
		cell, ok := persistentTarget(in.Args[0])
		if !ok {
			return Entry{}, false
		}
		base.Kind = KFlush
		base.Cell = cell
		return base, true
	case ir.OpTxAdd:
		cell, ok := persistentTarget(in.Args[0])
		if !ok {
			return Entry{}, false
		}
		base.Kind = KTxAdd
		base.Cell = cell
		return base, true
	case ir.OpFence:
		base.Kind = KFence
		return base, true
	case ir.OpTxBegin:
		base.Kind = KTxBegin
		return base, true
	case ir.OpTxEnd:
		base.Kind = KTxEnd
		return base, true
	case ir.OpEpochBegin:
		base.Kind = KEpochBegin
		return base, true
	case ir.OpEpochEnd:
		base.Kind = KEpochEnd
		return base, true
	case ir.OpStrandBegin, ir.OpStrandEnd:
		if in.Op == ir.OpStrandBegin {
			base.Kind = KStrandBegin
		} else {
			base.Kind = KStrandEnd
		}
		if c, isC := in.Args[0].(ir.Const); isC {
			base.Strand = c.Val
		}
		return base, true
	}
	return Entry{}, false
}
