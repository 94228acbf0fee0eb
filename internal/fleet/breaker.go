package fleet

import (
	"sync"
	"time"
)

// Shard ejection: one circuit breaker per shard.  A shard that keeps
// failing work or health probes is ejected from placement and pulling
// until a half-open probe recovers it.
//
//	Closed --(threshold consecutive failures)--> Open
//	Open --(cooldown elapsed; one probe granted)--> HalfOpen
//	HalfOpen --(probe succeeds)--> Closed
//	HalfOpen --(probe fails)--> Open
//
// Any success in Closed resets the consecutive-failure count.  The
// half-open probe is exclusive: concurrent Acquire calls grant it to
// exactly one caller, and late resolutions against an already-resolved
// probe degrade to the Closed/Open rules (a late failure after a
// successful probe counts one Closed-state failure; a late success
// after a failed probe is ignored) — one deterministic transition per
// probe, never a lost update.

// breakerState is one breaker's position in the state machine.
type breakerState uint8

const (
	breakerClosed breakerState = iota
	breakerOpen
	breakerHalfOpen
)

// breaker is one shard's record.  Guarded by the owning set's mutex.
type breaker struct {
	state     breakerState
	fails     int       // consecutive failures while Closed
	trippedAt time.Time // when the breaker last opened
}

// breakerSet holds one breaker per shard index.  Safe for concurrent
// use.
type breakerSet struct {
	mu        sync.Mutex
	threshold int
	cooldown  time.Duration
	now       func() time.Time // injectable clock for tests
	b         []breaker
}

// newBreakerSet builds breakers for shards 0..n-1 that trip after
// threshold consecutive failures and grant a half-open probe after
// cooldown.
func newBreakerSet(n, threshold int, cooldown time.Duration) *breakerSet {
	return &breakerSet{threshold: threshold, cooldown: cooldown, now: time.Now, b: make([]breaker, n)}
}

// Acquire moves every open breaker whose cooldown has elapsed to
// half-open and returns those shards, in index order: the caller owns
// their probes and must resolve each with OK or Fail.
func (s *breakerSet) Acquire() (probes []int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := range s.b {
		br := &s.b[i]
		if br.state == breakerOpen && s.now().Sub(br.trippedAt) >= s.cooldown {
			br.state = breakerHalfOpen
			probes = append(probes, i)
		}
	}
	return probes
}

// Fail records a failure of shard i.  While Closed it counts toward the
// trip threshold; a failed half-open probe reopens immediately.
func (s *breakerSet) Fail(i int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	br := &s.b[i]
	switch br.state {
	case breakerHalfOpen:
		br.state = breakerOpen
		br.trippedAt = s.now()
	case breakerClosed:
		br.fails++
		if br.fails >= s.threshold {
			br.state = breakerOpen
			br.trippedAt = s.now()
		}
	}
}

// OK records a success of shard i: a half-open probe closes the
// breaker, and any Closed-state failure streak resets.
func (s *breakerSet) OK(i int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	br := &s.b[i]
	if br.state != breakerOpen {
		br.state = breakerClosed
		br.fails = 0
	}
}

// Tripped reports whether shard i's breaker is not Closed — the routing
// predicate ("is this shard ejected right now?").
func (s *breakerSet) Tripped(i int) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b[i].state != breakerClosed
}
