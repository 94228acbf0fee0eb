// Package dynamic implements DeepMC's runtime analysis library (paper
// §4.4): happens-before detection of WAW and RAW dependences between
// strands over persistent memory, using shadow segments.
//
// The design mirrors the paper's customized ThreadSanitizer runtime:
//
//   - The persistent address space is mapped to shadow segments; each
//     segment tracks the access history of one aligned address range and
//     carries its own lock, so concurrent application threads touching
//     disjoint regions do not contend.  Only persistent addresses are
//     shadowed (the paper's scalability argument), unless the TrackAll
//     ablation is enabled.
//   - Happens-before has a two-tier representation.  A global persist
//     barrier outside strand regions orders everything before it against
//     everything after it; since every transaction commit fences, this is
//     by far the most common edge, and it is represented by one atomic
//     epoch counter consulted on the fast path.  Strand begin/end and
//     lock acquire/release edges use per-strand vector clocks, compared
//     only when the epoch test is inconclusive.
//   - Shadow cells are FastTrack-style: one write epoch, plus a read
//     set bounded at one entry per strand that a cell gains only at its
//     first tracked read.  Cells live by value in each segment's flat,
//     open-addressed table, so recording a write touches the strand's
//     state, the segment's lock and one table slot, and allocates
//     nothing once the slot exists.
//
// Conflicting accesses from unordered strands produce WARNING reports
// with both access sites, exactly the elaborate error reports §4.4
// describes.
package dynamic

import (
	"fmt"
	"sync"
	"sync/atomic"

	"deepmc/internal/ir"
	"deepmc/internal/report"
)

// segmentShift sets the shadow segment granularity (bytes per segment).
const segmentShift = 12 // 4 KiB segments, like the paper's page-mapped shadow

// VC is a vector clock mapping strand/thread ids to logical times.
type VC map[int64]uint64

// Copy returns an independent copy.
func (v VC) Copy() VC {
	c := make(VC, len(v))
	for k, t := range v {
		c[k] = t
	}
	return c
}

// Join folds o into v (pointwise max).
func (v VC) Join(o VC) {
	for k, t := range o {
		if v[k] < t {
			v[k] = t
		}
	}
}

// HappensBefore reports whether epoch (s,c) is ordered before the clock v.
func (v VC) HappensBefore(s int64, c uint64) bool { return v[s] >= c }

// access is one recorded access.
type access struct {
	strand int64
	clock  uint64
	gepoch uint64 // global fence epoch at access time
	at     *ir.Site
}

// shadowCell is the FastTrack state of one address, stored by value in
// its segment's table.  It keeps only the address's offset in the
// segment, which, with the flags, packs the cell into 48 bytes.
type shadowCell struct {
	write access
	// reads is nil until the cell's first tracked read: only the
	// interpreter's Runtime records reads, so most cells never need it.
	reads    *readSet
	off      uint16 // the address's byte offset in its segment
	used     bool   // the slot holds a cell
	hasWrite bool
	// flushed reports whether a flush covered this address since the
	// last write.  A racing read of an unflushed write is the deep
	// variant of RAW (DMC-D03): the value consumed never even reached
	// the write-back stage, so a durable side effect built on it is
	// guaranteed inconsistent after a crash.
	flushed bool
}

// readSet holds a cell's reads since its last write, at most one entry
// per strand, in first-read order.  A write racing several of them
// reports them in that order, and Report.Add keeps the first message
// per site, so the order decides which read a warning names.
type readSet struct{ r []access }

// minSlots is the size of a segment's first table.
const minSlots = 8

// segment shadows one aligned address range with its own lock.  Its
// cells form an open-addressed table (linear probing from the slot the
// address's word bits select) that doubles at 3/4 load.
type segment struct {
	mu    sync.Mutex
	cells []shadowCell
	n     int // slots in use
	// The events recorded here, counted under mu and summed by
	// StatsSnapshot, so the event path shares no counter.
	writes, reads, flushes uint64
}

// offset is addr's byte offset in its segment.
func offset(addr uint64) uint16 { return uint16(addr & (1<<segmentShift - 1)) }

// find returns addr's cell, or nil.  Caller holds mu.
func (s *segment) find(addr uint64) *shadowCell {
	if len(s.cells) == 0 {
		return nil
	}
	off, mask := offset(addr), len(s.cells)-1
	for i := int(off>>3) & mask; s.cells[i].used; i = (i + 1) & mask {
		if s.cells[i].off == off {
			return &s.cells[i]
		}
	}
	return nil
}

// cell returns addr's cell, adding an empty one if the segment has
// none.  Caller holds mu.
func (s *segment) cell(addr uint64) *shadowCell {
	if sc := s.find(addr); sc != nil {
		return sc
	}
	if size := len(s.cells); size == 0 {
		s.cells = make([]shadowCell, minSlots)
	} else if 4*(s.n+1) > 3*size {
		s.rehash(2 * size)
	}
	s.n++
	return s.place(offset(addr))
}

// place claims the first free slot on off's probe sequence.  Caller
// holds mu.
func (s *segment) place(off uint16) *shadowCell {
	mask := len(s.cells) - 1
	i := int(off>>3) & mask
	for s.cells[i].used {
		i = (i + 1) & mask
	}
	sc := &s.cells[i]
	sc.used, sc.off = true, off
	return sc
}

// rehash moves every cell into a fresh table of size slots.  Caller
// holds mu.
func (s *segment) rehash(size int) {
	old := s.cells
	s.cells = make([]shadowCell, size)
	for i := range old {
		if old[i].used {
			*s.place(old[i].off) = old[i]
		}
	}
}

// segTable is one stripe of the segment directory.  The padding keeps
// neighbouring stripes off each other's cache line, so uncontended
// stripe locks stay uncontended at the hardware level too.
type segTable struct {
	mu       sync.RWMutex
	segments map[uint64]*segment
	_        [96]byte
}

// segRef caches one strand's recent segment lookups.  Segments are
// created once and never deleted or replaced, so a cached pointer can
// never go stale — at worst it misses and the stripe resolves it.
// The cache is plain (non-atomic, allocation-free) state: a strand's
// memory events are issued by its owning thread only, which is the
// same single-writer discipline the rest of strandState relies on.
type segRef struct {
	key uint64
	s   *segment
}

// segCacheSlots sizes the per-strand direct-mapped segment cache
// (power of two).  One slot is not enough: a transactional store
// alternates between the log, index, and home segments, and a single
// entry thrashes on exactly that pattern.
const segCacheSlots = 4

// strandState is one strand/thread's clock state.  The vc map is guarded
// by mu; own mirrors vc[id] for lock-free fast-path reads (only the
// owning thread and strand/lock operations advance it).
type strandState struct {
	id   int64
	mu   sync.Mutex
	vc   VC
	next uint64
	own  atomic.Uint64
	// lastSeg short-circuits the stripe directory for the common case
	// of accesses landing in recently used shadow segments
	// (direct-mapped by the segment key's low bits; owned by the
	// strand's issuing thread, see segRef).
	lastSeg [segCacheSlots]segRef
	// begun is set once StrandBeginOnce has opened the strand.
	begun atomic.Bool
	// fn and fnSite memoize the strand's last FuncSite lookup (owned
	// by the strand's issuing thread, like lastSeg).
	fn     string
	fnSite *ir.Site
}

// Stats surfaces the checker's footprint for the scalability evaluation.
type Stats struct {
	Segments   int
	Cells      int
	Writes     uint64
	Reads      uint64
	Flushes    uint64
	RacesFound int
}

// Checker is the runtime analysis library.  It is safe for concurrent
// use by application threads.
type Checker struct {
	// TrackAll shadows volatile memory too (ablation; the paper tracks
	// only persistent regions).
	TrackAll bool
	// Disabled suppresses the dynamic detectors whose diagnostic codes
	// (report.CodeDynWAW / report.CodeDynRAW) it maps to true.  Set
	// before the run starts; gating happens at the emission site only,
	// so the happens-before machinery is unperturbed and the other
	// detector's verdicts are unchanged.
	Disabled map[string]bool

	// gepoch is the global fence counter.  Every event reads it and
	// every fence writes it, so it has a cache line of its own.
	_      [64]byte
	gepoch atomic.Uint64
	_      [56]byte

	// stripes shards the shadow-segment directory by the segment
	// key's low bits.
	stripes [segStripes]segTable

	// dense holds the strands with ids in [0, denseStrands), created on
	// first use; clocks holds every other id.
	dense  [denseStrands]atomic.Pointer[strandState]
	clocks sync.Map // int64 -> *strandState

	funcSites sync.Map // string -> *ir.Site, see FuncSite

	lockMu sync.Mutex // guards locks (off the report path)
	locks  map[any]VC

	mu    sync.Mutex // guards rep and races
	rep   *report.Report
	races int
}

// segStripes is the shard count of the shadow-segment directory (a
// power of two, so stripe selection is a mask).
const segStripes = 64

// denseStrands bounds the strand ids found by indexing an array rather
// than through a sync.Map: client threads and interpreter strands are
// small non-negative ids.
const denseStrands = 256

// NewChecker creates an empty runtime checker.
func NewChecker() *Checker {
	c := &Checker{locks: make(map[any]VC), rep: report.New()}
	for i := range c.stripes {
		c.stripes[i].segments = make(map[uint64]*segment)
	}
	return c
}

// Report returns the accumulated warnings.
func (c *Checker) Report() *report.Report {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.rep.Sort()
	return c.rep
}

// StatsSnapshot returns current footprint counters.
func (c *Checker) StatsSnapshot() Stats {
	var st Stats
	for i := range c.stripes {
		t := &c.stripes[i]
		t.mu.RLock()
		st.Segments += len(t.segments)
		for _, s := range t.segments {
			s.mu.Lock()
			st.Cells += s.n
			st.Writes += s.writes
			st.Reads += s.reads
			st.Flushes += s.flushes
			s.mu.Unlock()
		}
		t.mu.RUnlock()
	}
	c.mu.Lock()
	st.RacesFound = c.races
	c.mu.Unlock()
	return st
}

// strand returns (creating) the strand state, lock-free on the hot path.
func (c *Checker) strand(id int64) *strandState {
	if uint64(id) < denseStrands {
		p := &c.dense[id]
		if st := p.Load(); st != nil {
			return st
		}
		p.CompareAndSwap(nil, newStrandState(id))
		return p.Load()
	}
	if v, ok := c.clocks.Load(id); ok {
		return v.(*strandState)
	}
	actual, _ := c.clocks.LoadOrStore(id, newStrandState(id))
	return actual.(*strandState)
}

func newStrandState(id int64) *strandState {
	return &strandState{id: id, vc: VC{id: 0}, next: 1}
}

// bump advances a strand's own clock component.
func (st *strandState) bump() {
	st.mu.Lock()
	st.vc[st.id] = st.next
	st.own.Store(st.next)
	st.next++
	st.mu.Unlock()
}

// StrandBegin opens (or resumes) a strand.  It is concurrent with other
// live strands; ordering against pre-fence history comes from the global
// epoch.
func (c *Checker) StrandBegin(id int64) { c.strand(id).bump() }

// StrandBeginOnce opens id's strand at its first call for id and does
// nothing at later ones.  A caller that treats each thread as a strand
// from its first event calls it at every event.
func (c *Checker) StrandBeginOnce(id int64) {
	if st := c.strand(id); !st.begun.Load() && st.begun.CompareAndSwap(false, true) {
		st.bump()
	}
}

// FuncSite returns the site of an event whose issuer knows only the
// function it runs in: the function's name in place of a file, at line
// 0, interned once per name.  Each strand memoizes its last name, so a
// thread that keeps naming one function finds its site without a map
// lookup; like the rest of the strand's per-event state, the memo
// belongs to the thread that issues the strand's events.
func (c *Checker) FuncSite(id int64, fn string) *ir.Site {
	st := c.strand(id)
	if st.fnSite != nil && st.fn == fn {
		return st.fnSite
	}
	v, ok := c.funcSites.Load(fn)
	if !ok {
		v, _ = c.funcSites.LoadOrStore(fn, &ir.Site{Func: fn, File: fn})
	}
	st.fn, st.fnSite = fn, v.(*ir.Site)
	return st.fnSite
}

// StrandEnd closes a strand region.  The strand's writes remain visible
// in the shadow state (they may still race with later strands until a
// global fence orders them).
func (c *Checker) StrandEnd(id int64) { c.strand(id).bump() }

// GlobalFence orders every strand's past against everything that
// follows (a persist barrier outside strand regions): one atomic bump.
func (c *Checker) GlobalFence() { c.gepoch.Add(1) }

// Acquire orders the thread after the last Release of the lock.
func (c *Checker) Acquire(id int64, lock any) {
	st := c.strand(id)
	c.lockMu.Lock()
	lv, ok := c.locks[lock]
	if ok {
		st.mu.Lock()
		st.vc.Join(lv)
		st.mu.Unlock()
	}
	c.lockMu.Unlock()
}

// Release publishes the thread's clock through the lock, then advances
// it.  The snapshot is taken BEFORE the bump (standard FastTrack
// release): accesses the thread performs after the release carry the
// new, unpublished clock and stay racy with a later acquirer.  (The
// previous bump-then-snapshot order published the post-release clock,
// silently ordering the releaser's subsequent accesses — a missed-race
// window the epoch/VC agreement property test caught.)
func (c *Checker) Release(id int64, lock any) {
	st := c.strand(id)
	st.mu.Lock()
	st.vc[st.id] = st.own.Load()
	snapshot := st.vc.Copy()
	st.mu.Unlock()
	st.bump()
	c.lockMu.Lock()
	lv, ok := c.locks[lock]
	if !ok {
		lv = make(VC)
		c.locks[lock] = lv
	}
	lv.Join(snapshot)
	c.lockMu.Unlock()
}

// seg returns (creating) the shadow segment for an address.  The
// strand's last-segment cache answers repeat hits without touching the
// stripe lock; misses fall through to the owning stripe.
func (c *Checker) seg(st *strandState, addr uint64) *segment {
	key := addr >> segmentShift
	slot := &st.lastSeg[key&(segCacheSlots-1)]
	if slot.s != nil && slot.key == key {
		return slot.s
	}
	t := &c.stripes[key&(segStripes-1)]
	t.mu.RLock()
	s := t.segments[key]
	t.mu.RUnlock()
	if s == nil {
		t.mu.Lock()
		if s = t.segments[key]; s == nil {
			s = &segment{}
			t.segments[key] = s
		}
		t.mu.Unlock()
	}
	*slot = segRef{key: key, s: s}
	return s
}

// ordered decides whether a previous access happens-before the current
// one: same strand, separated by a global fence, or vector-clock ordered
// (the slow path).
func (c *Checker) ordered(st *strandState, now uint64, prev *access) bool {
	if prev.strand == st.id {
		return true
	}
	if prev.gepoch < now {
		return true // a global persist barrier intervened
	}
	st.mu.Lock()
	hb := st.vc.HappensBefore(prev.strand, prev.clock)
	st.mu.Unlock()
	return hb
}

// Write records a persistent write by strand id at addr and checks WAW
// and read-write races against unordered prior accesses.
func (c *Checker) Write(id int64, addr uint64, persistent bool, at *ir.Site) {
	if !persistent && !c.TrackAll {
		return
	}
	st := c.strand(id)
	now := c.gepoch.Load()
	s := c.seg(st, addr)
	s.mu.Lock()
	s.writes++
	sc := s.cell(addr)
	type conflict struct {
		prev access
		kind string
	}
	var raceWith []conflict
	if sc.hasWrite && !c.ordered(st, now, &sc.write) {
		raceWith = append(raceWith, conflict{prev: sc.write, kind: "WAW"})
	}
	if sc.reads != nil {
		for i := range sc.reads.r {
			r := &sc.reads.r[i]
			if !c.ordered(st, now, r) {
				raceWith = append(raceWith, conflict{prev: *r, kind: "RAW"})
			}
		}
		sc.reads.r = sc.reads.r[:0]
	}
	sc.hasWrite = true
	sc.write = access{strand: id, clock: st.own.Load(), gepoch: now, at: at}
	sc.flushed = false
	s.mu.Unlock()
	for _, cf := range raceWith {
		c.race(cf.kind, cf.prev, access{strand: id, at: at}, addr, false)
	}
}

// Flush records a write-back covering addr: the pending write (if any)
// is now staged, so later racing reads observe an at-least-flushed
// value and report ordinary RAW (DMC-D02) instead of unflushed RAW
// (DMC-D03).  Flushes carry no dependence edge of their own — they
// only refine what a subsequent race means.
func (c *Checker) Flush(id int64, addr uint64, persistent bool, at *ir.Site) {
	if !persistent && !c.TrackAll {
		return
	}
	s := c.seg(c.strand(id), addr)
	s.mu.Lock()
	s.flushes++
	if sc := s.find(addr); sc != nil && sc.hasWrite {
		sc.flushed = true
	}
	s.mu.Unlock()
}

// Read records a persistent read and checks RAW races against unordered
// prior writes from other strands.
func (c *Checker) Read(id int64, addr uint64, persistent bool, at *ir.Site) {
	if !persistent && !c.TrackAll {
		return
	}
	st := c.strand(id)
	now := c.gepoch.Load()
	s := c.seg(st, addr)
	s.mu.Lock()
	s.reads++
	sc := s.cell(addr)
	var raced *access
	racedUnflushed := false
	if sc.hasWrite && !c.ordered(st, now, &sc.write) {
		cp := sc.write
		raced = &cp
		racedUnflushed = !sc.flushed
	}
	if sc.reads == nil {
		sc.reads = &readSet{}
	}
	rec := access{strand: id, clock: st.own.Load(), gepoch: now, at: at}
	updated := false
	for i := range sc.reads.r {
		if sc.reads.r[i].strand == id {
			sc.reads.r[i] = rec
			updated = true
			break
		}
	}
	if !updated {
		sc.reads.r = append(sc.reads.r, rec)
	}
	s.mu.Unlock()
	if raced != nil {
		c.race("RAW", *raced, access{strand: id, at: at}, addr, racedUnflushed)
	}
}

// race emits a dependence warning.  unflushed marks a RAW whose racing
// write was never flushed before the read consumed it — reported under
// its own code (DMC-D03) so the fuzzer and reports can distinguish
// "durable side effect on non-persisted data" from an ordinary
// ordering race; when DMC-D03 is disabled by pass selection the race
// degrades to the plain RAW code rather than disappearing.
func (c *Checker) race(kind string, prev, cur access, addr uint64, unflushed bool) {
	code := report.CodeDynWAW
	detail := ""
	if kind == "RAW" {
		code = report.CodeDynRAW
		if unflushed && !c.Disabled[report.CodeDynUnflushedRAW] {
			code = report.CodeDynUnflushedRAW
			detail = "; the value read was never flushed, so durable effects built on it do not survive a crash"
		}
	}
	if c.Disabled[code] {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.races++
	c.rep.Add(report.Warning{
		Rule: report.RuleStrandDependence,
		Code: code,
		Message: fmt.Sprintf(
			"%s dependence between strands %d and %d on persistent address %#x (previous access at %s:%d): dependent persists must share a strand or be ordered by a barrier%s",
			kind, prev.strand, cur.strand, addr, prev.at.File, prev.at.Line, detail),
		Func:    cur.at.Func,
		File:    cur.at.File,
		Line:    cur.at.Line,
		Dynamic: true,
	})
}
