package pmem

import (
	"fmt"
	"sync"
	"testing"
)

// Two client threads storing to one address with no lock or fence
// between them race from their very first event: each thread is a
// strand from the start, not only once it has released a lock.  The
// warning names each port function as its file at line 0, the one the
// thread named at that access.  The second pair's ids lie outside the
// checker's dense strand range.
func TestCheckerTrackerRacesFromFirstEvent(t *testing.T) {
	for _, pair := range [][2]int64{{1, 2}, {256, 1 << 40}} {
		tr := NewCheckerTracker()
		tr.Write(pair[0], 0x40, "item_link")
		tr.Write(pair[1], 0x80, "item_alloc")
		tr.Write(pair[1], 0x40, "item_unlink")
		want := "WARNING [Model Violation/dynamic] item_unlink:0 (DMC-D01 strand-data-dependence): " +
			fmt.Sprintf("WAW dependence between strands %d and %d on persistent address 0x40 (previous access at item_link:0): ", pair[0], pair[1]) +
			"dependent persists must share a strand or be ordered by a barrier\n" +
			"1 warnings (1 model violations, 0 performance)\n"
		if got := tr.C.Report().String(); got != want {
			t.Errorf("threads %v: report:\n%s\nwant:\n%s", pair, got, want)
		}
	}
}

// Eight threads, with ids inside and outside the dense range, drive one
// tracker at once.  Each writes and reads its own addresses, under
// fences and a shared lock, so the counters are exact and nothing
// races; under -race this also checks the strand state kept per thread.
func TestCheckerTrackerConcurrentThreads(t *testing.T) {
	const rounds, words = 50, 16
	threads := []int64{0, 1, 2, 255, 256, 1000, 1 << 40, -3}
	tr := NewCheckerTracker()
	var wg sync.WaitGroup
	for g, thread := range threads {
		wg.Add(1)
		go func(g int, thread int64) {
			defer wg.Done()
			base := uint64(g+1) << 20
			fns := []string{"m_txstore", "m_txcommit"}
			for r := 0; r < rounds; r++ {
				tr.Acquire(thread, "bucket")
				for w := uint64(0); w < words; w++ {
					tr.Write(thread, base+8*w, fns[w%2])
				}
				tr.Read(thread, base, "m_load")
				tr.Release(thread, "bucket")
				tr.Fence(thread)
			}
		}(g, thread)
	}
	wg.Wait()
	st := tr.C.StatsSnapshot()
	n := uint64(len(threads))
	if st.Writes != n*rounds*words || st.Reads != n*rounds || st.Cells != int(n)*words || st.RacesFound != 0 {
		t.Errorf("stats = %+v, want %d writes, %d reads, %d cells and no races", st, n*rounds*words, n*rounds, n*words)
	}
	if rep := tr.C.Report(); len(rep.Warnings) != 0 {
		t.Errorf("disjoint threads raced:\n%s", rep)
	}
}
