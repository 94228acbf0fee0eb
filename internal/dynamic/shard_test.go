package dynamic

import (
	"deepmc/internal/ir"
	"math/rand"
	"sync"
	"testing"
)

// replayPattern drives one deterministic access pattern — strands,
// fences, locks, reads, writes, flushes — against a checker.
func replayPattern(c *Checker, seed int64, events int) {
	rng := rand.New(rand.NewSource(seed))
	locks := []string{"lockA", "lockB", "lockC"}
	for i := 0; i < events; i++ {
		id := int64(1 + rng.Intn(4))
		addr := uint64(rng.Intn(1 << 16)) // spans many 4 KiB segments
		switch rng.Intn(10) {
		case 0:
			c.StrandBegin(id)
		case 1:
			c.StrandEnd(id)
		case 2:
			c.GlobalFence()
		case 3:
			c.Acquire(id, locks[rng.Intn(len(locks))])
		case 4:
			c.Release(id, locks[rng.Intn(len(locks))])
		case 5, 6:
			c.Write(id, addr, true, &ir.Site{Func: "fn", File: "file.go", Line: i})
		case 7:
			c.Flush(id, addr, true, &ir.Site{Func: "fn", File: "file.go", Line: i})
		default:
			c.Read(id, addr, true, &ir.Site{Func: "fn", File: "file.go", Line: i})
		}
	}
}

// The striped directory plus per-strand segment cache must be
// behaviourally invisible: the same serial access pattern through the
// single-stripe (pre-shard) layout and the default sharded layout must
// render identical reports and identical footprint counters.
func TestStripedCheckerMatchesSingleStripe(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		base := NewCheckerStripes(1)
		sharded := NewChecker()
		replayPattern(base, seed, 4000)
		replayPattern(sharded, seed, 4000)
		if a, b := base.Report().String(), sharded.Report().String(); a != b {
			t.Fatalf("seed %d: reports diverge:\n--- 1 stripe ---\n%s\n--- sharded ---\n%s", seed, a, b)
		}
		sa, sb := base.StatsSnapshot(), sharded.StatsSnapshot()
		if sa != sb {
			t.Fatalf("seed %d: stats diverge: %+v vs %+v", seed, sa, sb)
		}
	}
}

// Concurrency smoke for the sharded hot path under -race: goroutines
// hammering overlapping segments through all entry points.
func TestStripedCheckerConcurrentAccess(t *testing.T) {
	c := NewChecker()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(id int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(id))
			c.StrandBegin(id)
			for i := 0; i < 3000; i++ {
				addr := uint64(rng.Intn(1 << 14))
				switch i % 5 {
				case 0:
					c.Write(id, addr, true, &ir.Site{Func: "fn", File: "file.go", Line: i})
				case 1:
					c.Flush(id, addr, true, &ir.Site{Func: "fn", File: "file.go", Line: i})
				case 2:
					c.GlobalFence()
				case 3:
					c.Acquire(id, "L")
					c.Release(id, "L")
				default:
					c.Read(id, addr, true, &ir.Site{Func: "fn", File: "file.go", Line: i})
				}
			}
			c.StrandEnd(id)
		}(int64(g + 1))
	}
	wg.Wait()
	st := c.StatsSnapshot()
	if st.Writes == 0 || st.Reads == 0 || st.Flushes == 0 {
		t.Fatalf("counters did not move: %+v", st)
	}
	_ = c.Report().String() // must not race with anything above
}

func TestNewCheckerStripesRounding(t *testing.T) {
	for _, tc := range []struct{ in, want int }{
		{-3, 1}, {0, 1}, {1, 1}, {2, 2}, {3, 4}, {64, 64}, {65, 128},
	} {
		c := NewCheckerStripes(tc.in)
		if got := len(c.stripes); got != tc.want {
			t.Errorf("NewCheckerStripes(%d): %d stripes, want %d", tc.in, got, tc.want)
		}
		if wantCache := tc.want > 1; c.segCache != wantCache {
			t.Errorf("NewCheckerStripes(%d): segCache=%v, want %v", tc.in, c.segCache, wantCache)
		}
	}
}
