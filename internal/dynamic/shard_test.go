package dynamic

import (
	"deepmc/internal/ir"
	"math/rand"
	"sync"
	"testing"
)

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
