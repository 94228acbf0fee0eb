package serve

import (
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// blockingWriter parks the request inside its response write until
// release is closed.
type blockingWriter struct {
	*httptest.ResponseRecorder
	entered chan struct{}
	release chan struct{}
}

func (w *blockingWriter) Write(b []byte) (int, error) {
	close(w.entered)
	<-w.release
	return w.ResponseRecorder.Write(b)
}

// TestQueueCountsOnlyWaiters is the regression test for the queue
// gauge.  With one worker and a one-deep queue, request A is held in its
// response write, past its analysis slot but still holding its admission
// slot, while request B runs to completion.  No request ever waited for
// a slot, so nothing may read as queued.
func TestQueueCountsOnlyWaiters(t *testing.T) {
	s, err := NewServer(Config{MaxInFlight: 1, QueueDepth: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	src := func(i int) string {
		return fmt.Sprintf("module q%d\ntype t struct {\n\ta: int\n}\nfunc main() {\n\t%%p = palloc t\n\tstore %%p.a, %d @4\n\tret\n}\n", i, i)
	}

	a := &blockingWriter{ResponseRecorder: httptest.NewRecorder(), entered: make(chan struct{}), release: make(chan struct{})}
	done := make(chan struct{})
	go func() {
		defer close(done)
		s.serveRequest(a, Request{Source: src(1)})
	}()
	<-a.entered
	b := httptest.NewRecorder()
	s.serveRequest(b, Request{Source: src(2)})
	st := s.Snapshot()
	close(a.release)
	<-done

	if b.Code != http.StatusOK || a.Code != http.StatusOK {
		t.Fatalf("statuses A=%d B=%d, want 200 and 200", a.Code, b.Code)
	}
	if st.Queued != 0 || st.QueueHighWater != 0 {
		t.Errorf("queued=%d, queue high water=%d with no request ever waiting for a slot, want 0 and 0",
			st.Queued, st.QueueHighWater)
	}
}

// TestRequestTimeoutClamp: a request may lower its deadline but never
// raise it, and a timeout_ms too large to convert to a time.Duration
// means the server cap, not a wrapped, already expired deadline.
func TestRequestTimeoutClamp(t *testing.T) {
	s := &Server{cfg: Config{RequestTimeout: 30 * time.Second}}
	for _, tc := range []struct {
		ms   int
		want time.Duration
	}{
		{0, 30 * time.Second},
		{-5, 30 * time.Second},
		{1000, time.Second},
		{30000, 30 * time.Second},
		{30001, 30 * time.Second},
		{10000000000000, 30 * time.Second},
		{math.MaxInt, 30 * time.Second},
	} {
		if got := s.requestTimeout(Request{TimeoutMs: tc.ms}); got != tc.want {
			t.Errorf("timeout_ms %d: deadline %v, want %v", tc.ms, got, tc.want)
		}
	}
}
