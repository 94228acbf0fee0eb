package dynamic

import (
	"deepmc/internal/ir"
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

// This file checks the checker's central optimization: the global-fence
// epoch fast path (ordered()'s `prev.gepoch < now` shortcut) must be
// exactly equivalent to a pure vector-clock encoding of the same order,
// where a global fence publishes every strand's clock into a fence VC
// and then advances them (so post-fence accesses are distinguishable).
// The oracle below reimplements the full verdict pipeline with ONLY
// vector clocks — no epoch counter — and random strand/lock histories
// must produce identical warning sets at several strand widths.

// oAccess mirrors the checker's access record, clock-only.
type oAccess struct {
	strand int64
	clock  uint64
	line   int
}

type oCell struct {
	hasWrite bool
	write    oAccess
	flushed  bool
	reads    []oAccess
}

// oracle is the pure-VC reimplementation.
type oracle struct {
	vcs   map[int64]VC
	own   map[int64]uint64
	next  map[int64]uint64
	gvc   map[int64]uint64 // fence-published clocks; absent strand = never covered
	locks map[int]VC
	cells map[uint64]*oCell
	// warns collects "code|line", deduped by line like report.Add (all
	// dynamic warnings share rule and file, so Key() dedupes on line).
	warns    []string
	warnSeen map[int]bool
}

func newOracle() *oracle {
	return &oracle{
		vcs:      make(map[int64]VC),
		own:      make(map[int64]uint64),
		next:     make(map[int64]uint64),
		gvc:      make(map[int64]uint64),
		locks:    make(map[int]VC),
		cells:    make(map[uint64]*oCell),
		warnSeen: make(map[int]bool),
	}
}

func (o *oracle) strand(id int64) VC {
	if v, ok := o.vcs[id]; ok {
		return v
	}
	v := VC{id: 0}
	o.vcs[id] = v
	o.own[id] = 0
	o.next[id] = 1
	return v
}

func (o *oracle) bump(id int64) {
	o.strand(id)
	o.vcs[id][id] = o.next[id]
	o.own[id] = o.next[id]
	o.next[id]++
}

// fence publishes every known strand's clock, then advances them: the
// VC rendering of "everything before the barrier happens-before
// everything after".
func (o *oracle) fence() {
	ids := make([]int64, 0, len(o.vcs))
	for id := range o.vcs {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		if o.own[id] == 0 {
			// Never-bumped strands (e.g. accesses outside any strand
			// region) stay at clock 0: their accesses are vacuously
			// ordered before everything (HappensBefore's `>= 0`), the
			// checker's pre-strand-history convention.  Bumping them here
			// would break that vacuity and diverge from the epoch path.
			continue
		}
		o.gvc[id] = o.own[id]
		o.bump(id)
	}
}

func (o *oracle) acquire(id int64, lock int) {
	o.strand(id)
	if lv, ok := o.locks[lock]; ok {
		o.vcs[id].Join(lv)
	}
}

func (o *oracle) release(id int64, lock int) {
	o.strand(id)
	o.vcs[id][id] = o.own[id]
	lv, ok := o.locks[lock]
	if !ok {
		lv = make(VC)
		o.locks[lock] = lv
	}
	lv.Join(o.vcs[id])
	o.bump(id)
}

func (o *oracle) ordered(cur int64, prev *oAccess) bool {
	if prev.strand == cur {
		return true
	}
	if pub, ok := o.gvc[prev.strand]; ok && pub >= prev.clock {
		return true // a global persist barrier covered prev
	}
	return o.strand(cur)[prev.strand] >= prev.clock
}

func (o *oracle) warn(code string, line int) {
	if o.warnSeen[line] {
		return
	}
	o.warnSeen[line] = true
	o.warns = append(o.warns, fmt.Sprintf("%s|%d", code, line))
}

func (o *oracle) cell(addr uint64) *oCell {
	c := o.cells[addr]
	if c == nil {
		c = &oCell{}
		o.cells[addr] = c
	}
	return c
}

func (o *oracle) write(id int64, addr uint64, line int) {
	o.strand(id)
	c := o.cell(addr)
	var races []string
	if c.hasWrite && !o.ordered(id, &c.write) {
		races = append(races, "DMC-D01")
	}
	for i := range c.reads {
		if !o.ordered(id, &c.reads[i]) {
			races = append(races, "DMC-D02")
		}
	}
	c.hasWrite = true
	c.write = oAccess{strand: id, clock: o.own[id], line: line}
	c.flushed = false
	c.reads = c.reads[:0]
	for _, code := range races {
		o.warn(code, line)
	}
}

func (o *oracle) read(id int64, addr uint64, line int) {
	o.strand(id)
	c := o.cell(addr)
	if c.hasWrite && !o.ordered(id, &c.write) {
		code := "DMC-D02"
		if !c.flushed {
			code = "DMC-D03"
		}
		o.warn(code, line)
	}
	rec := oAccess{strand: id, clock: o.own[id], line: line}
	updated := false
	for i := range c.reads {
		if c.reads[i].strand == id {
			c.reads[i] = rec
			updated = true
			break
		}
	}
	if !updated {
		c.reads = append(c.reads, rec)
	}
}

func (o *oracle) flush(addr uint64) {
	if c := o.cells[addr]; c != nil && c.hasWrite && !c.flushed {
		c.flushed = true
	}
}

// TestEpochFastPathAgreesWithVectorClocks drives random strand/lock
// histories through the production checker and the pure-VC oracle at
// widths 1, 2, and 8 strands, with fixed seeds, and requires identical
// warning sets (code + site).  Any divergence means the epoch shortcut
// and the slow path disagree on some happens-before verdict.  Each
// history draws its addresses in one of three shapes: eight hot words;
// those words half the time and any word of a whole segment otherwise,
// so the segment's shadow table passes through every size; and byte
// addresses straddling a segment edge, several to a word.
func TestEpochFastPathAgreesWithVectorClocks(t *testing.T) {
	const (
		seedsPerWidth = 40
		lockCount     = 2
	)
	hot := func(rng *rand.Rand) uint64 { return uint64(0x1000 + 8*rng.Intn(8)) }
	shapes := []struct {
		name string
		ops  int
		addr func(*rand.Rand) uint64
	}{
		{"hot", 300, hot},
		{"dense", 2000, func(rng *rand.Rand) uint64 {
			if rng.Intn(2) == 0 {
				return hot(rng)
			}
			return uint64(0x2000 + 8*rng.Intn(512))
		}},
		{"unaligned", 300, func(rng *rand.Rand) uint64 { return uint64(0x3ff0 + rng.Intn(40)) }},
	}
	for _, shape := range shapes {
		for _, strands := range []int{1, 2, 8} {
			for seed := int64(1); seed <= seedsPerWidth; seed++ {
				agreeWithVectorClocks(t, shape.name, strands, seed, shape.ops, lockCount, shape.addr)
			}
		}
	}
}

// agreeWithVectorClocks runs one random history through the checker and
// the oracle and fails the test if their warning sets differ.
func agreeWithVectorClocks(t *testing.T, shape string, strands int, seed int64, ops, lockCount int, addrOf func(*rand.Rand) uint64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed*1000 + int64(strands)))
	c := NewChecker()
	o := newOracle()
	for op := 1; op <= ops; op++ {
		id := int64(rng.Intn(strands + 1)) // 0 = outside strand regions
		addr := addrOf(rng)
		lock := rng.Intn(lockCount)
		switch k := rng.Intn(100); {
		case k < 30:
			c.Write(id, addr, true, &ir.Site{Func: "h", File: "h.c", Line: op})
			o.write(id, addr, op)
		case k < 60:
			c.Read(id, addr, true, &ir.Site{Func: "h", File: "h.c", Line: op})
			o.read(id, addr, op)
		case k < 75:
			c.Flush(id, addr, true, &ir.Site{Func: "h", File: "h.c", Line: op})
			o.flush(addr)
		case k < 82:
			c.GlobalFence()
			o.fence()
		case k < 88:
			c.Acquire(id, lock)
			o.acquire(id, lock)
		case k < 94:
			c.Release(id, lock)
			o.release(id, lock)
		default:
			c.StrandBegin(id) // a bump, like StrandEnd
			o.bump(id)
		}
	}
	var got []string
	for _, w := range c.Report().Warnings {
		got = append(got, fmt.Sprintf("%s|%d", w.EffectiveCode(), w.Line))
	}
	sort.Strings(got)
	want := append([]string(nil), o.warns...)
	sort.Strings(want)
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("%s strands=%d seed=%d: checker and pure-VC oracle disagree\nchecker: %v\noracle:  %v",
			shape, strands, seed, got, want)
	}
}
