package dynamic

import (
	"runtime"
	"sync"
	"testing"

	"deepmc/internal/interp"
	"deepmc/internal/ir"
	"deepmc/internal/report"
)

func TestWAWBetweenStrands(t *testing.T) {
	c := NewChecker()
	c.StrandBegin(1)
	c.Write(1, 0x1000, true, &ir.Site{Func: "f", File: "f.c", Line: 10})
	c.StrandEnd(1)
	c.StrandBegin(2)
	c.Write(2, 0x1000, true, &ir.Site{Func: "f", File: "f.c", Line: 20})
	c.StrandEnd(2)
	rep := c.Report()
	if len(rep.Warnings) != 1 {
		t.Fatalf("warnings = %d, want 1:\n%s", len(rep.Warnings), rep)
	}
	w := rep.Warnings[0]
	if w.Rule != report.RuleStrandDependence || !w.Dynamic || w.Line != 20 {
		t.Errorf("warning = %+v", w)
	}
}

func TestRAWBetweenStrands(t *testing.T) {
	c := NewChecker()
	c.StrandBegin(1)
	c.Write(1, 0x2000, true, &ir.Site{Func: "f", File: "f.c", Line: 10})
	c.StrandEnd(1)
	c.StrandBegin(2)
	c.Read(2, 0x2000, true, &ir.Site{Func: "f", File: "f.c", Line: 30})
	c.StrandEnd(2)
	rep := c.Report()
	if len(rep.Warnings) != 1 {
		t.Fatalf("warnings = %d, want 1", len(rep.Warnings))
	}
}

func TestGlobalFenceOrdersStrands(t *testing.T) {
	c := NewChecker()
	c.StrandBegin(1)
	c.Write(1, 0x3000, true, &ir.Site{Func: "f", File: "f.c", Line: 10})
	c.StrandEnd(1)
	c.GlobalFence()
	c.StrandBegin(2)
	c.Write(2, 0x3000, true, &ir.Site{Func: "f", File: "f.c", Line: 20})
	c.StrandEnd(2)
	if rep := c.Report(); len(rep.Warnings) != 0 {
		t.Errorf("fence-ordered strands must not race:\n%s", rep)
	}
}

func TestDisjointAddressesNoRace(t *testing.T) {
	c := NewChecker()
	c.StrandBegin(1)
	c.Write(1, 0x100, true, &ir.Site{Func: "f", File: "f.c", Line: 1})
	c.StrandEnd(1)
	c.StrandBegin(2)
	c.Write(2, 0x108, true, &ir.Site{Func: "f", File: "f.c", Line: 2})
	c.StrandEnd(2)
	if rep := c.Report(); len(rep.Warnings) != 0 {
		t.Errorf("disjoint strands must not race:\n%s", rep)
	}
}

func TestSameStrandNoRace(t *testing.T) {
	c := NewChecker()
	c.StrandBegin(1)
	c.Write(1, 0x100, true, &ir.Site{Func: "f", File: "f.c", Line: 1})
	c.Write(1, 0x100, true, &ir.Site{Func: "f", File: "f.c", Line: 2})
	c.Read(1, 0x100, true, &ir.Site{Func: "f", File: "f.c", Line: 3})
	c.StrandEnd(1)
	if rep := c.Report(); len(rep.Warnings) != 0 {
		t.Errorf("a strand cannot race with itself:\n%s", rep)
	}
}

func TestVolatileUntracked(t *testing.T) {
	c := NewChecker()
	c.StrandBegin(1)
	c.Write(1, 0x100, false, &ir.Site{Func: "f", File: "f.c", Line: 1})
	c.StrandEnd(1)
	c.StrandBegin(2)
	c.Write(2, 0x100, false, &ir.Site{Func: "f", File: "f.c", Line: 2})
	c.StrandEnd(2)
	if rep := c.Report(); len(rep.Warnings) != 0 {
		t.Errorf("volatile accesses must be ignored by default:\n%s", rep)
	}
	st := c.StatsSnapshot()
	if st.Writes != 0 {
		t.Errorf("stats recorded %d volatile writes", st.Writes)
	}
}

func TestTrackAllAblation(t *testing.T) {
	c := NewChecker()
	c.TrackAll = true
	c.StrandBegin(1)
	c.Write(1, 0x100, false, &ir.Site{Func: "f", File: "f.c", Line: 1})
	c.StrandEnd(1)
	c.StrandBegin(2)
	c.Write(2, 0x100, false, &ir.Site{Func: "f", File: "f.c", Line: 2})
	c.StrandEnd(2)
	if rep := c.Report(); len(rep.Warnings) != 1 {
		t.Errorf("TrackAll must detect the volatile race:\n%s", rep)
	}
}

func TestAcquireReleaseOrdering(t *testing.T) {
	c := NewChecker()
	lock := "mu"
	c.StrandBegin(1)
	c.Write(1, 0x500, true, &ir.Site{Func: "f", File: "f.c", Line: 1})
	c.Release(1, lock)
	c.StrandEnd(1)
	c.StrandBegin(2)
	c.Acquire(2, lock)
	c.Write(2, 0x500, true, &ir.Site{Func: "f", File: "f.c", Line: 2})
	c.StrandEnd(2)
	if rep := c.Report(); len(rep.Warnings) != 0 {
		t.Errorf("lock-ordered accesses must not race:\n%s", rep)
	}
}

func TestConcurrentUseIsSafe(t *testing.T) {
	c := NewChecker()
	var wg sync.WaitGroup
	for th := int64(1); th <= 8; th++ {
		wg.Add(1)
		go func(id int64) {
			defer wg.Done()
			c.StrandBegin(id)
			for i := 0; i < 1000; i++ {
				c.Write(id, uint64(id)<<20|uint64(i*8), true, &ir.Site{Func: "f", File: "f.c", Line: int(id)})
			}
			c.StrandEnd(id)
		}(th)
	}
	wg.Wait()
	st := c.StatsSnapshot()
	if st.Writes != 8000 {
		t.Errorf("writes = %d, want 8000", st.Writes)
	}
	if rep := c.Report(); len(rep.Warnings) != 0 {
		t.Errorf("disjoint concurrent writes raced:\n%s", rep)
	}
}

func TestShadowSegments(t *testing.T) {
	c := NewChecker()
	c.StrandBegin(1)
	// Two addresses in one 4K segment, one in another.
	c.Write(1, 0x0008, true, &ir.Site{Func: "f", File: "f.c", Line: 1})
	c.Write(1, 0x0010, true, &ir.Site{Func: "f", File: "f.c", Line: 2})
	c.Write(1, 0x5000, true, &ir.Site{Func: "f", File: "f.c", Line: 3})
	c.StrandEnd(1)
	st := c.StatsSnapshot()
	if st.Segments != 2 {
		t.Errorf("segments = %d, want 2", st.Segments)
	}
	if st.Cells != 3 {
		t.Errorf("cells = %d, want 3", st.Cells)
	}
}

// --- end-to-end through the interpreter -------------------------------------

const strandProgSrc = `
module m

type acct struct {
	bal: int
	log: int
}

func racy(a: *acct) {
	file "racy.c"
	strandbegin 1        @10
	store %a.bal, 100    @11
	flush %a.bal         @12
	strandend 1          @13
	strandbegin 2        @14
	store %a.bal, 200    @15
	flush %a.bal         @16
	strandend 2          @17
	fence                @18
	ret
}

func ordered(a: *acct) {
	file "ordered.c"
	strandbegin 1        @20
	store %a.bal, 100    @21
	flush %a.bal         @22
	strandend 1          @23
	fence                @24
	strandbegin 2        @25
	store %a.bal, 200    @26
	flush %a.bal         @27
	strandend 2          @28
	fence                @29
	ret
}

func main_racy() {
	%a = palloc acct
	call racy(%a)
	ret
}

func main_ordered() {
	%a = palloc acct
	call ordered(%a)
	ret
}
`

func TestEndToEndStrandRace(t *testing.T) {
	m := ir.MustParse(strandProgSrc)
	rt := NewRuntime(true)
	ip := interp.New(m, rt)
	if _, err := ip.Run("main_racy"); err != nil {
		t.Fatalf("Run: %v", err)
	}
	rep := rt.Checker.Report()
	found := false
	for _, w := range rep.Warnings {
		if w.Rule == report.RuleStrandDependence && w.Line == 15 {
			found = true
		}
	}
	if !found {
		t.Errorf("WAW at racy.c:15 not detected:\n%s", rep)
	}
}

func TestEndToEndOrderedClean(t *testing.T) {
	m := ir.MustParse(strandProgSrc)
	rt := NewRuntime(true)
	ip := interp.New(m, rt)
	if _, err := ip.Run("main_ordered"); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if rep := rt.Checker.Report(); len(rep.Warnings) != 0 {
		t.Errorf("fence-separated strands flagged:\n%s", rep)
	}
}

// TestShadowFootprint bounds what the shadow state retains per cell on
// the layout the soak serves: memcache entries of 11 words (key, in-use
// flag, next pointer, 8 value words) allocated cacheline-aligned, so
// 128 bytes apart, each word written once by one of two strands with a
// fence every ten writes.  A 4 KiB segment then holds 32 entries, 352
// cells, in a 512-slot table of 48-byte cells: 512*48/352, about 70
// bytes per cell.  The bound is 80 bytes and 0.05 heap objects per
// cell; a heap-allocated cell behind a map entry per address retains
// about 107 bytes and one object.
func TestShadowFootprint(t *testing.T) {
	const cells, entryWords, stride = 200_000, 11, 128
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	c := NewChecker()
	at := &ir.Site{Func: "f", File: "f.c", Line: 1}
	for i := 0; i < cells; i++ {
		addr := 0x100000 + stride*uint64(i/entryWords) + 8*uint64(i%entryWords)
		c.Write(int64(1+i%2), addr, true, at)
		if i%10 == 9 {
			c.GlobalFence()
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	if st := c.StatsSnapshot(); st.Cells != cells || st.RacesFound != 0 {
		t.Fatalf("stats = %+v, want %d cells and no races", st, cells)
	}
	runtime.KeepAlive(c)
	perCell := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / cells
	objects := float64(int64(after.HeapObjects)-int64(before.HeapObjects)) / cells
	t.Logf("retained %.1f B and %.3f heap objects per cell", perCell, objects)
	if perCell > 80 || objects > 0.05 {
		t.Errorf("retained %.1f B and %.3f objects per cell, want at most 80 B and 0.05", perCell, objects)
	}
}
