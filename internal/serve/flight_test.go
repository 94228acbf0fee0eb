package serve

import (
	"context"
	"sync"
	"testing"
	"time"
)

// TestFlightDetachOnCancel: a coalesced waiter whose context expires
// while the leader is still running detaches immediately instead of
// inheriting the leader's latency, and the leader's eventual result is
// unaffected.
func TestFlightDetachOnCancel(t *testing.T) {
	g := newFlightGroup()
	leaderStarted := make(chan struct{})
	release := make(chan struct{})
	want := &result{status: 200}

	var wg sync.WaitGroup
	wg.Add(1)
	var leaderRes *result
	var leaderCoalesced bool
	go func() {
		defer wg.Done()
		leaderRes, leaderCoalesced = g.do(context.Background(), "k", func() *result {
			close(leaderStarted)
			<-release
			return want
		})
	}()
	<-leaderStarted

	// The waiter's deadline is its own: it must return well before the
	// leader is released.
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	done := make(chan struct{})
	var waiterRes *result
	var waiterCoalesced bool
	go func() {
		waiterRes, waiterCoalesced = g.do(ctx, "k", func() *result {
			t.Error("waiter must coalesce, not execute")
			return nil
		})
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("detached waiter blocked behind the leader")
	}
	if waiterRes != nil || !waiterCoalesced {
		t.Fatalf("detached waiter: res=%v coalesced=%v, want nil/true", waiterRes, waiterCoalesced)
	}

	close(release)
	wg.Wait()
	if leaderRes != want || leaderCoalesced {
		t.Fatalf("leader: res=%v coalesced=%v", leaderRes, leaderCoalesced)
	}

	// The key is free again: a later caller leads a fresh execution.
	res, coalesced := g.do(context.Background(), "k", func() *result { return want })
	if res != want || coalesced {
		t.Fatal("key not released after leader completion")
	}
}
