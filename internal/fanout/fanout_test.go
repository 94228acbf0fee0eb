package fanout

import (
	"runtime"
	"testing"
)

func TestRunCoversAllIndices(t *testing.T) {
	for _, workers := range []int{-1, 0, 1, 3, 16} {
		hits := make([]int, 100)
		Run(workers, len(hits), func(i int) { hits[i]++ })
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("workers=%d: index %d executed %d times", workers, i, h)
			}
		}
	}
	Run(4, 0, func(int) { t.Fatal("called with no work") })
}

func TestWorkers(t *testing.T) {
	for _, c := range []struct{ in, want int }{
		{0, runtime.GOMAXPROCS(0)},
		{-3, 1},
		{1, 1},
		{7, 7},
	} {
		if got := Workers(c.in); got != c.want {
			t.Errorf("Workers(%d) = %d, want %d", c.in, got, c.want)
		}
	}
}
