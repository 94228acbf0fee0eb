package fleet

import (
	"sync"
	"testing"
	"time"
)

// fakeClock drives breakerSet.now deterministically.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// newTrippedSet returns a one-shard set whose breaker has just opened.
func newTrippedSet(t *testing.T, clk *fakeClock) *breakerSet {
	t.Helper()
	s := newBreakerSet(1, 3, time.Second)
	s.now = clk.now
	for i := 0; i < 3; i++ {
		s.Fail(0)
	}
	if !s.Tripped(0) {
		t.Fatal("breaker did not trip after threshold failures")
	}
	return s
}

// TestBreakerHalfOpenSingleProbe: after the cooldown, many concurrent
// Acquire calls grant the half-open probe to exactly one caller, and
// the shard stays ejected while that probe is out.
func TestBreakerHalfOpenSingleProbe(t *testing.T) {
	clk := &fakeClock{t: time.Unix(100, 0)}
	s := newTrippedSet(t, clk)
	clk.advance(2 * time.Second)

	const callers = 32
	var (
		wg      sync.WaitGroup
		mu      sync.Mutex
		probed  int
		ejected int
	)
	start := make(chan struct{})
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			probes := s.Acquire()
			tripped := s.Tripped(0)
			mu.Lock()
			probed += len(probes)
			if tripped {
				ejected++
			}
			mu.Unlock()
		}()
	}
	close(start)
	wg.Wait()

	if probed != 1 {
		t.Fatalf("probe granted %d times, want exactly 1", probed)
	}
	if ejected != callers {
		t.Fatalf("%d callers saw the half-open shard ejected, want %d", ejected, callers)
	}
}

// TestBreakerProbeOutcomeRaces: successes and failures reported against
// a single half-open probe resolve to one deterministic transition — the
// first report wins, and late reports degrade to the ordinary
// Closed/Open rules.
func TestBreakerProbeOutcomeRaces(t *testing.T) {
	t.Run("success then late failure", func(t *testing.T) {
		clk := &fakeClock{t: time.Unix(100, 0)}
		s := newTrippedSet(t, clk)
		clk.advance(2 * time.Second)
		if probes := s.Acquire(); len(probes) != 1 {
			t.Fatalf("probe not granted: %v", probes)
		}
		s.OK(0)   // probe succeeds: HalfOpen -> Closed
		s.Fail(0) // late failure counts as one Closed-state failure
		if s.Tripped(0) {
			t.Fatal("one late failure after a successful probe must not reopen")
		}
		// Two more failures complete a fresh streak of three.
		s.Fail(0)
		if s.Tripped(0) {
			t.Fatal("two Closed-state failures must not trip a threshold-3 breaker")
		}
		s.Fail(0)
		if !s.Tripped(0) {
			t.Fatal("the third consecutive failure must trip the breaker again")
		}
	})

	t.Run("failure then late success", func(t *testing.T) {
		clk := &fakeClock{t: time.Unix(100, 0)}
		s := newTrippedSet(t, clk)
		clk.advance(2 * time.Second)
		if probes := s.Acquire(); len(probes) != 1 {
			t.Fatalf("probe not granted: %v", probes)
		}
		s.Fail(0) // probe fails: HalfOpen -> Open, new cooldown
		s.OK(0)   // late success against the reopened breaker is ignored
		if !s.Tripped(0) {
			t.Fatal("late success must not close a breaker whose probe failed")
		}
		// And before the new cooldown elapses, no second probe.
		clk.advance(500 * time.Millisecond)
		if probes := s.Acquire(); len(probes) != 0 {
			t.Fatalf("probe granted before cooldown: %v", probes)
		}
		clk.advance(time.Second)
		if probes := s.Acquire(); len(probes) != 1 {
			t.Fatalf("probe not granted after the new cooldown: %v", probes)
		}
	})
}

// TestBreakerConcurrentResolutions hammers a half-open probe with mixed
// OK/Fail reports under the race detector: the set must end closed or
// open, never half-open with nobody owning the probe.
func TestBreakerConcurrentResolutions(t *testing.T) {
	clk := &fakeClock{t: time.Unix(100, 0)}
	s := newTrippedSet(t, clk)
	clk.advance(2 * time.Second)
	if probes := s.Acquire(); len(probes) != 1 {
		t.Fatal("probe not granted")
	}
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(fail bool) {
			defer wg.Done()
			if fail {
				s.Fail(0)
			} else {
				s.OK(0)
			}
		}(i%2 == 0)
	}
	wg.Wait()
	if st := s.b[0].state; st == breakerHalfOpen {
		t.Fatal("probe resolution left the breaker half-open")
	}
}
