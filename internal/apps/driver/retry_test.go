package driver

import (
	"errors"
	"math/rand"
	"sync"
	"testing"
	"time"

	"deepmc/internal/workload"
)

var errTransient = errors.New("transient wire error")
var errFatal = errors.New("fatal: store corrupted")

// flakyKV fails every failEvery-th operation with the configured error,
// succeeding on retry (the failure is counted per attempt of each
// thread, so the next attempt of the same op passes).
type flakyKV struct {
	mu        sync.Mutex
	attempts  map[int64]int // by thread
	failEvery int
	err       error
}

func (f *flakyKV) Do(thread int64, op workload.Op) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.attempts == nil {
		f.attempts = make(map[int64]int)
	}
	f.attempts[thread]++
	if f.failEvery > 0 && f.attempts[thread]%f.failEvery == 0 {
		return f.err
	}
	return nil
}

func TestRunRetryRecoversTransientFailures(t *testing.T) {
	kv := &flakyKV{failEvery: 5, err: errTransient}
	pol := RetryPolicy{
		MaxAttempts: 3,
		BaseDelay:   time.Microsecond,
		MaxDelay:    10 * time.Microsecond,
		Transient:   func(err error) bool { return errors.Is(err, errTransient) },
		Seed:        1,
	}
	res, err := RunRetry(kv, workload.Mix{Read: 100}, 4, 50, 64, pol)
	if err != nil {
		t.Fatalf("transient failures not absorbed: %v", err)
	}
	if res.Ops != 200 {
		t.Fatalf("ops = %d, want 200", res.Ops)
	}
	if res.Retries == 0 {
		t.Fatal("every 5th attempt failed but no retries were counted")
	}
}

func TestRunRetryNonTransientFailsImmediately(t *testing.T) {
	kv := &flakyKV{failEvery: 1, err: errFatal} // every attempt fails
	pol := RetryPolicy{
		MaxAttempts: 5,
		BaseDelay:   time.Microsecond,
		Transient:   func(err error) bool { return errors.Is(err, errTransient) },
		Seed:        1,
	}
	res, err := RunRetry(kv, workload.Mix{Read: 100}, 1, 10, 64, pol)
	if !errors.Is(err, errFatal) {
		t.Fatalf("err = %v, want %v", err, errFatal)
	}
	// Non-transient: the op must not have been retried.
	if res.Retries != 0 {
		t.Fatalf("non-transient error was retried %d times", res.Retries)
	}
}

func TestRunRetryBudgetExhaustion(t *testing.T) {
	kv := &flakyKV{failEvery: 1, err: errTransient} // never succeeds
	pol := RetryPolicy{
		MaxAttempts: 3,
		BaseDelay:   time.Microsecond,
		Transient:   func(err error) bool { return true },
		Seed:        1,
	}
	res, err := RunRetry(kv, workload.Mix{Read: 100}, 1, 5, 64, pol)
	if !errors.Is(err, errTransient) {
		t.Fatalf("exhausted budget surfaced %v", err)
	}
	// The first op burned its full budget: MaxAttempts-1 retries, then
	// its client stopped.
	if res.Retries != 2 {
		t.Fatalf("retries = %d, want 2", res.Retries)
	}
}

func TestRunIsRetryWithOneAttempt(t *testing.T) {
	kv := &flakyKV{failEvery: 20, err: errTransient}
	if _, err := Run(kv, workload.Mix{Read: 100}, 2, 20, 64); err == nil {
		t.Fatal("Run absorbed a failure despite its no-retry contract")
	}
}

func TestBackoffBounds(t *testing.T) {
	pol := RetryPolicy{BaseDelay: 8 * time.Millisecond, MaxDelay: 20 * time.Millisecond}
	rng := rand.New(rand.NewSource(1))
	for attempt := 0; attempt < 6; attempt++ {
		d := pol.backoff(attempt, rng)
		nominal := pol.BaseDelay << uint(attempt)
		if nominal > pol.MaxDelay {
			nominal = pol.MaxDelay
		}
		if d < nominal/2 || d >= nominal {
			t.Fatalf("attempt %d: backoff %v outside [%v, %v)", attempt, d, nominal/2, nominal)
		}
	}
}

// Regression: BaseDelay << attempt overflows int64 around attempt 62
// and the old `d <= 0` guard then returned 0, silently disabling
// backoff for the longest-failing operations.  Overflow must saturate
// at MaxDelay instead.
func TestBackoffOverflowClampsToMaxDelay(t *testing.T) {
	pol := RetryPolicy{BaseDelay: 8 * time.Millisecond, MaxDelay: 20 * time.Millisecond}
	rng := rand.New(rand.NewSource(2))
	for _, attempt := range []int{62, 63, 64, 100, 1 << 20} {
		d := pol.backoff(attempt, rng)
		if d < pol.MaxDelay/2 || d > pol.MaxDelay {
			t.Fatalf("attempt %d: backoff %v outside [%v, %v]", attempt, d, pol.MaxDelay/2, pol.MaxDelay)
		}
	}
}

// Without a MaxDelay, overflow must saturate at the documented ceiling
// rather than returning 0.
func TestBackoffOverflowWithoutCapUsesCeiling(t *testing.T) {
	pol := RetryPolicy{BaseDelay: time.Nanosecond}
	rng := rand.New(rand.NewSource(3))
	for _, attempt := range []int{62, 63, 127} {
		d := pol.backoff(attempt, rng)
		if d <= 0 {
			t.Fatalf("attempt %d: backoff %v — overflow disabled backoff", attempt, d)
		}
		if d > backoffCeiling {
			t.Fatalf("attempt %d: backoff %v exceeds ceiling %v", attempt, d, backoffCeiling)
		}
	}
}

// Equal-seed determinism across RunRetry: two runs over an engine that
// records the op stream must issue identical per-client sequences.
func TestRunRetryDeterministicStreams(t *testing.T) {
	record := func() map[int64][]workload.Op {
		rec := &recordingKV{ops: map[int64][]workload.Op{}}
		if _, err := RunRetry(rec, workload.Mix{Read: 60, Update: 30, Insert: 10}, 3, 200, 128, RetryPolicy{Seed: 7}); err != nil {
			t.Fatal(err)
		}
		return rec.ops
	}
	a, b := record(), record()
	if len(a) != len(b) {
		t.Fatalf("client counts differ: %d vs %d", len(a), len(b))
	}
	for th, ops := range a {
		if len(ops) != len(b[th]) {
			t.Fatalf("client %d op counts differ: %d vs %d", th, len(ops), len(b[th]))
		}
		for i := range ops {
			if ops[i] != b[th][i] {
				t.Fatalf("client %d op %d diverged: %+v vs %+v", th, i, ops[i], b[th][i])
			}
		}
	}
}

func TestRunRetryRejectsMalformedMix(t *testing.T) {
	kv := &flakyKV{}
	if _, err := RunRetry(kv, workload.Mix{Read: 50}, 1, 1, 64, RetryPolicy{}); err == nil {
		t.Fatal("RunRetry accepted a mix summing to 50")
	}
}

type recordingKV struct {
	mu  sync.Mutex
	ops map[int64][]workload.Op
}

func (r *recordingKV) Do(thread int64, op workload.Op) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.ops[thread] = append(r.ops[thread], op)
	return nil
}
