package faultinj

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

// drawAll draws n decisions of every kind a schedule makes from s and
// renders them, so two schedules drew the same stream iff their
// renderings are equal.
func drawAll(s *Schedule, n int) string {
	b := make([]byte, 0, 16*n)
	for i := 0; i < n; i++ {
		switch i % 4 {
		case 0:
			b = fmt.Appendf(b, "f%v ", s.src.Float64())
		case 1:
			b = fmt.Appendf(b, "i%d ", s.Intn(1+i%37))
		case 2:
			b = fmt.Appendf(b, "p%v ", s.Perm(1+i%9))
		case 3:
			b = fmt.Appendf(b, "s%v ", s.Subset(2+i%7))
		}
	}
	return string(b)
}

// TestMemoStreamMatchesSeededRand is the seed memo's oracle: a schedule
// from New draws exactly what one from a freshly seeded math/rand
// generator draws, for many seeds, for lengths short of, at and well
// past the memoized prefix, and while several goroutines draw from the
// same seeds at once.
func TestMemoStreamMatchesSeededRand(t *testing.T) {
	lengths := []int{0, 1, 7, memoPrefix / 8, memoPrefix / 2, memoPrefix, 3 * memoPrefix}
	var seeds []int64
	for i := int64(0); i < 3*memoSeeds; i++ {
		seeds = append(seeds, i*7919-11, -i, 1<<40+i)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i, seed := range seeds {
				n := lengths[(i+g)%len(lengths)]
				cfg := Config{Classes: AllClasses(), Seed: seed}
				want := drawAll(NewWithSource(cfg, rand.New(rand.NewSource(seed))), n)
				if got := drawAll(New(cfg), n); got != want {
					t.Errorf("goroutine %d seed %d, %d draws: memoized stream differs from math/rand's", g, seed, n)
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestMemoRetainsBoundedSeeds: however many distinct seeds schedules
// are built from, the memo keeps at most memoSeeds of them, the last
// one among them.
func TestMemoRetainsBoundedSeeds(t *testing.T) {
	const last = 100*memoSeeds + 3
	for seed := int64(0); seed <= last; seed++ {
		New(Config{Seed: seed})
	}
	streams.Lock()
	defer streams.Unlock()
	if len(streams.prefix) > memoSeeds {
		t.Fatalf("memo holds %d seeds, want at most %d", len(streams.prefix), memoSeeds)
	}
	if _, ok := streams.prefix[last]; !ok {
		t.Errorf("memo lacks the last seed %d", last)
	}
}
