package deepmc_test

import (
	"runtime"
	"testing"

	"deepmc/internal/corpus"
)

// TestCrashFaultsAllocationBound pins what one BenchmarkCrashFaults op
// allocates: 1,444 crash points over 180 enumerations.  Before the word
// table was a sorted slice, the seed stream memoized and the image
// reused across a crash point's outcomes, an op allocated 6.1 MB in
// 42.4k allocations.  It reads process-wide counters, so it must not
// run in parallel with other tests; the race detector changes what
// escapes, so it is skipped under -race.
func TestCrashFaultsAllocationBound(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	const maxBytes, maxAllocs = 2_500_000, 25_000
	cases, err := corpus.CrashCases()
	if err != nil {
		t.Fatal(err)
	}
	crashFaultsOp(t, cases) // warm lazily built state (sites, seed streams)
	var bytes, allocs uint64
	for i := 0; i < 3; i++ {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		if points := crashFaultsOp(t, cases); points != 1444 {
			t.Fatalf("op checked %d crash points, want 1444", points)
		}
		runtime.ReadMemStats(&m1)
		if b, a := m1.TotalAlloc-m0.TotalAlloc, m1.Mallocs-m0.Mallocs; i == 0 || b < bytes {
			bytes, allocs = b, a
		}
	}
	if bytes > maxBytes || allocs > maxAllocs {
		t.Errorf("one crash-faults op allocated %d bytes in %d allocations, want at most %d bytes in %d",
			bytes, allocs, maxBytes, maxAllocs)
	}
	t.Logf("one crash-faults op: %d bytes, %d allocations", bytes, allocs)
}
