// Package fanout runs index-addressed work on a bounded pool of
// goroutines, and resolves worker counts the one way every Workers
// option and -jobs flag in the repository reads them.
package fanout

import (
	"runtime"
	"sync"
)

// Workers resolves a configured worker count: 0 selects
// runtime.GOMAXPROCS(0), a negative count means 1, and a positive count
// is taken as given.
func Workers(n int) int {
	switch {
	case n == 0:
		return runtime.GOMAXPROCS(0)
	case n < 0:
		return 1
	}
	return n
}

// Run calls fn(i) for every i in [0, n) on at most workers goroutines
// and returns when every call has.  With one worker (or fewer) it is a
// plain loop on the calling goroutine.  fn must be safe to call
// concurrently for distinct indices.
func Run(workers, n int, fn func(i int)) {
	workers = min(workers, n)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
}
