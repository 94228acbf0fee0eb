package serve

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"deepmc/internal/anacache"
	"deepmc/internal/corpus"
	"deepmc/internal/dsa"
	"deepmc/internal/report"
)

// recordingTier is a wire-visible verdict tier that remembers every
// verified PUT, so tests can assert exactly which verdicts a draining
// shard flushed.
type recordingTier struct {
	mu   sync.Mutex
	m    map[anacache.Key][]report.Warning
	puts int
}

func newRecordingTier() *recordingTier {
	return &recordingTier{m: make(map[anacache.Key][]report.Warning)}
}

func (rt *recordingTier) LookupVerdicts(k anacache.Key) ([]report.Warning, bool) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	ws, ok := rt.m[k]
	return ws, ok
}

func (rt *recordingTier) StoreVerdicts(k anacache.Key, ws []report.Warning, _ dsa.FuncSummary) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	rt.m[k] = ws
	rt.puts++
}

func (rt *recordingTier) putCount() int {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.puts
}

// TestShardDrainFlushesTier: the satellite drain guarantee.  A shard
// that acknowledged a verdict must hand it to the shared tier before
// SIGTERM exit — Shutdown flushes the write-behind queue — and a
// replacement shard pointed at the same tier serves the identical
// bytes from backing, not recomputation alone.
func TestShardDrainFlushesTier(t *testing.T) {
	rt := newRecordingTier()
	tierSrv := httptest.NewServer(anacache.BackingHandler(rt))
	defer tierSrv.Close()

	p := corpus.All()[0]
	req := Request{Corpus: p.Name, Model: p.Model.String()}

	s1, base1 := startServer(t, Config{TierURL: tierSrv.URL})
	status, _, body1 := post(t, base1, req)
	if status != http.StatusOK {
		t.Fatalf("shard 1 analyze: status %d: %s", status, body1)
	}
	// The verdict was acknowledged to the client; drain must not lose
	// it even though the tier write rides a write-behind queue.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s1.Shutdown(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if rt.putCount() == 0 {
		t.Fatal("drain exited without flushing the acknowledged verdict to the tier")
	}

	// The replacement shard has a cold local cache; the tier is its
	// only memory of the dead shard's work.
	s2, base2 := startServer(t, Config{TierURL: tierSrv.URL})
	status, _, body2 := post(t, base2, req)
	if status != http.StatusOK {
		t.Fatalf("shard 2 analyze: status %d: %s", status, body2)
	}
	if !bytes.Equal(body1, body2) {
		t.Fatal("restarted shard's response diverges from the drained shard's")
	}
	if cs := s2.CacheStats(); cs.BackingHits == 0 {
		t.Fatalf("restarted shard never read the tier: %+v", cs)
	}
	if ts := s2.TierStats(); ts.Hits == 0 {
		t.Fatalf("remote backing recorded no hits: %+v", ts)
	}
}

// TestShardDrainSurvivesDeadTier: a tier that died must not wedge
// shard shutdown — drain reports the flush failure but still exits.
func TestShardDrainSurvivesDeadTier(t *testing.T) {
	tierSrv := httptest.NewServer(anacache.BackingHandler(newRecordingTier()))
	s, base := startServer(t, Config{TierURL: tierSrv.URL})
	p := corpus.All()[0]
	if status, _, body := post(t, base, Request{Corpus: p.Name, Model: p.Model.String()}); status != http.StatusOK {
		t.Fatalf("analyze: status %d: %s", status, body)
	}
	tierSrv.Close() // tier dies with writes possibly unflushed
	done := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
		defer cancel()
		done <- s.Shutdown(ctx)
	}()
	select {
	case <-done:
		// Flush may or may not have raced the close; either way
		// shutdown returned promptly.
	case <-time.After(10 * time.Second):
		t.Fatal("shutdown wedged on a dead tier")
	}
}

// TestShardChecksumHeaders: every shard response carries the framing
// the HTTP transport verifies — Content-Length plus the body checksum.
func TestShardChecksumHeaders(t *testing.T) {
	_, base := startServer(t, Config{})
	p := corpus.All()[0]
	status, hdr, body := post(t, base, Request{Corpus: p.Name, Model: p.Model.String()})
	if status != http.StatusOK {
		t.Fatalf("analyze: status %d", status)
	}
	if got, want := hdr.Get(anacache.SumHeader), anacache.BodySum(body); got != want {
		t.Fatalf("%s = %q, want %q", anacache.SumHeader, got, want)
	}
}

// TestPModelRequestValidation: an unknown persistence-domain contract
// is a 400 — terminal on the wire, never retried.
func TestPModelRequestValidation(t *testing.T) {
	_, base := startServer(t, Config{})
	p := corpus.All()[0]
	status, _, body := post(t, base, Request{Corpus: p.Name, Model: p.Model.String(), PModel: "no-such-contract"})
	if status != http.StatusBadRequest {
		t.Fatalf("bad pmodel: status %d: %s", status, body)
	}
}
