package anacache

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"
	"time"

	"deepmc/internal/dsa"
	"deepmc/internal/report"
)

// memBacking (the map-backed test Backing) lives in anacache_test.go;
// storeCount exposes its write counter to the wire tests.
func (b *memBacking) storeCount() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.stores
}

func testKey(b byte) Key {
	var k Key
	for i := range k {
		k[i] = b
	}
	return k
}

func testWarnings() []report.Warning {
	return []report.Warning{{
		Rule: report.RuleUnflushedWrite, Class: report.Violation,
		Message: "persistent write never flushed", Func: "put", File: "kv.pir", Line: 12,
	}}
}

func TestRemoteBackingRoundTrip(t *testing.T) {
	server := newMemBacking()
	ts := httptest.NewServer(BackingHandler(server))
	defer ts.Close()

	rb := NewRemoteBacking(ts.URL, RemoteOptions{})
	defer rb.Close()

	k := testKey(1)
	rb.StoreVerdicts(k, testWarnings(), dsa.FuncSummary{})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := rb.Flush(ctx); err != nil {
		t.Fatalf("flush: %v", err)
	}
	if server.storeCount() != 1 {
		t.Fatalf("server saw %d puts, want 1", server.storeCount())
	}

	ws, ok := rb.LookupVerdicts(k)
	if !ok || len(ws) != 1 || ws[0].Rule != report.RuleUnflushedWrite || ws[0].Line != 12 {
		t.Fatalf("round trip lost the verdict: ok=%v ws=%v", ok, ws)
	}
	if _, ok := rb.LookupVerdicts(testKey(2)); ok {
		t.Fatal("load of an absent key reported a hit")
	}
	st := rb.Stats()
	if st.Puts != 1 || st.Hits != 1 || st.Misses != 1 || st.Corrupt != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

// corruptor flips one byte in every GET response body after re-framing
// headers, simulating wire corruption the checksum must catch.
func corruptor(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			next.ServeHTTP(w, r)
			return
		}
		rec := httptest.NewRecorder()
		next.ServeHTTP(rec, r)
		body := rec.Body.Bytes()
		if rec.Code == http.StatusOK && len(body) > 0 {
			body[len(body)/2] ^= 0xff
		}
		h := w.Header()
		for key, vs := range rec.Header() {
			h[key] = vs
		}
		h.Set("Content-Length", strconv.Itoa(len(body)))
		w.WriteHeader(rec.Code)
		w.Write(body)
	})
}

func TestRemoteBackingCorruptBodyIsAMiss(t *testing.T) {
	server := newMemBacking()
	server.StoreVerdicts(testKey(3), testWarnings(), dsa.FuncSummary{})
	ts := httptest.NewServer(corruptor(BackingHandler(server)))
	defer ts.Close()

	rb := NewRemoteBacking(ts.URL, RemoteOptions{})
	defer rb.Close()
	if _, ok := rb.LookupVerdicts(testKey(3)); ok {
		t.Fatal("corrupted body was trusted as a verdict")
	}
	st := rb.Stats()
	if st.Corrupt != 1 || st.Misses != 1 {
		t.Fatalf("stats = %+v, want corrupt=1 misses=1", st)
	}
}

func TestRemoteBackingTruncatedBodyIsAMiss(t *testing.T) {
	// A server that declares more bytes than it sends: the client's
	// read fails mid-body, which must degrade to a miss.
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set(SumHeader, BodySum([]byte("{}")))
		w.Header().Set("Content-Length", "4096")
		w.WriteHeader(http.StatusOK)
		w.Write([]byte(`{"format":1,`))
		if f, ok := w.(http.Flusher); ok {
			f.Flush()
		}
		if hj, ok := w.(http.Hijacker); ok {
			if conn, _, err := hj.Hijack(); err == nil {
				conn.Close()
			}
		}
	}))
	defer ts.Close()

	rb := NewRemoteBacking(ts.URL, RemoteOptions{Timeout: time.Second})
	defer rb.Close()
	if _, ok := rb.LookupVerdicts(testKey(4)); ok {
		t.Fatal("truncated body was trusted as a verdict")
	}
	st := rb.Stats()
	if st.Hits != 0 || st.Misses != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestBackingHandlerRejectsCorruptPut(t *testing.T) {
	server := newMemBacking()
	ts := httptest.NewServer(BackingHandler(server))
	defer ts.Close()

	body := []byte(`{"format":1,"warnings":[]}`)
	// Wrong checksum: claim a sum for different bytes.
	req, _ := http.NewRequest(http.MethodPut, ts.URL+"/"+testKey(5).Hex(), bytes.NewReader(body))
	req.Header.Set(SumHeader, BodySum([]byte("other")))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("corrupt PUT got %d, want 400", resp.StatusCode)
	}
	if server.storeCount() != 0 {
		t.Fatal("tier stored bytes it could not verify")
	}
}

func TestBackingHandlerRejectsBadKey(t *testing.T) {
	ts := httptest.NewServer(BackingHandler(newMemBacking()))
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/not-a-key")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad key got %d, want 400", resp.StatusCode)
	}
}

func TestRemoteBackingFlushTimesOutAgainstDeadTier(t *testing.T) {
	// No server at all: puts fail fast, flush still returns.
	rb := NewRemoteBacking("http://127.0.0.1:1", RemoteOptions{Timeout: 200 * time.Millisecond})
	defer rb.Close()
	rb.StoreVerdicts(testKey(6), testWarnings(), dsa.FuncSummary{})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := rb.Flush(ctx); err != nil {
		t.Fatalf("flush against a dead tier should drain (attempts fail): %v", err)
	}
	if rb.Stats().Errors == 0 {
		t.Fatal("expected wire errors against a dead tier")
	}
}
