package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"deepmc/internal/core"
	"deepmc/internal/corpus"
)

// startServer spins up a daemon on a loopback port and tears it down
// with the test.
func startServer(t *testing.T, cfg Config) (*Server, string) {
	t.Helper()
	s, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve(l)
	t.Cleanup(func() { s.Close() })
	return s, "http://" + l.Addr().String()
}

// post sends one /analyze request and returns status, headers and body.
func post(t *testing.T, base string, req Request) (int, http.Header, []byte) {
	t.Helper()
	b, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/analyze", "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatalf("post: %v", err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	return resp.StatusCode, resp.Header, body
}

// batchJSON computes the batch-mode report bytes the serve response
// must match exactly.
func batchJSON(t *testing.T, p *corpus.Program) []byte {
	t.Helper()
	m, err := p.Module()
	if err != nil {
		t.Fatal(err)
	}
	rep, err := core.Analyze(m, core.Config{Model: p.Model.String()})
	if err != nil {
		t.Fatal(err)
	}
	b, err := rep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestServeMatchesBatch: for every corpus target, the daemon's response
// body is byte-identical to the batch pipeline's JSON report.
func TestServeMatchesBatch(t *testing.T) {
	_, base := startServer(t, Config{})
	for _, p := range corpus.All() {
		want := batchJSON(t, p)
		status, hdr, body := post(t, base, Request{Corpus: p.Name})
		if status != http.StatusOK {
			t.Fatalf("%s: status = %d, body %s", p.Name, status, body)
		}
		if !bytes.Equal(body, want) {
			t.Errorf("%s: serve report differs from batch report\nserve: %s\nbatch: %s", p.Name, body, want)
		}
		if got := hdr.Get("X-Deepmc-Partial"); got != "false" {
			t.Errorf("%s: X-Deepmc-Partial = %q, want false", p.Name, got)
		}
		// The corpus programs all contain planted bugs, so the batch
		// exit contract says 1.
		if got := hdr.Get("X-Deepmc-Exit"); got != "1" {
			t.Errorf("%s: X-Deepmc-Exit = %q, want 1", p.Name, got)
		}
	}
}

// TestCorpusEndpoint: GET /corpus/{name} is the same analysis.
func TestCorpusEndpoint(t *testing.T) {
	_, base := startServer(t, Config{})
	p := corpus.All()[0]
	resp, err := http.Get(base + "/corpus/" + p.Name)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if want := batchJSON(t, p); !bytes.Equal(body, want) {
		t.Errorf("corpus endpoint report differs from batch")
	}
	// Unknown target: 404, not 500.
	resp2, err := http.Get(base + "/corpus/NoSuchThing")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusNotFound {
		t.Errorf("unknown corpus status = %d, want 404", resp2.StatusCode)
	}
}

// TestConcurrentCorpusRequests: every corpus target requested at once,
// several times over and through both routes, while the server shares
// one parsed module per target across the analyses.  Distinct timeouts
// keep the requests from coalescing, so analyses of one module run
// concurrently on a cold cache; every body must equal the batch report.
// `make race` runs it under the race detector.
func TestConcurrentCorpusRequests(t *testing.T) {
	_, base := startServer(t, Config{MaxInFlight: 8})
	progs := corpus.All()
	want := make(map[string][]byte, len(progs))
	for _, p := range progs {
		want[p.Name] = batchJSON(t, p)
	}
	const copies = 3
	var wg sync.WaitGroup
	errs := make(chan error, len(progs)*(copies+1))
	for _, p := range progs {
		for i := 0; i <= copies; i++ {
			wg.Add(1)
			go func(name string, i int) {
				defer wg.Done()
				var resp *http.Response
				var err error
				if i == copies {
					resp, err = http.Get(base + "/corpus/" + name)
				} else {
					b, _ := json.Marshal(Request{Corpus: name, TimeoutMs: 60000 + i})
					resp, err = http.Post(base+"/analyze", "application/json", bytes.NewReader(b))
				}
				if err != nil {
					errs <- err
					return
				}
				defer resp.Body.Close()
				body, err := io.ReadAll(resp.Body)
				if err != nil {
					errs <- err
					return
				}
				if resp.StatusCode != http.StatusOK || !bytes.Equal(body, want[name]) {
					errs <- fmt.Errorf("%s request %d: status %d, body differs from batch:\n%s", name, i, resp.StatusCode, body)
				}
			}(p.Name, i)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// failingBody is a request body whose reads fail like a dropped
// connection.
type failingBody struct{}

func (failingBody) Read([]byte) (int, error) { return 0, errors.New("connection reset by peer") }

// endlessBody is a request body that never ends.
type endlessBody struct{}

func (endlessBody) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = ' '
	}
	return len(p), nil
}

// TestAnalyzeBodyReadErrors: only a body over the size limit is 413; a
// body that fails to read is the client's 400 and names the error.
func TestAnalyzeBodyReadErrors(t *testing.T) {
	s, err := NewServer(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for _, tc := range []struct {
		name   string
		body   io.Reader
		status int
		want   string
	}{
		{"too large", endlessBody{}, http.StatusRequestEntityTooLarge, "body too large"},
		{"read error", failingBody{}, http.StatusBadRequest, "reading request body: connection reset by peer"},
	} {
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest("POST", "/analyze", tc.body))
		var got map[string]string
		if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
			t.Fatalf("%s: body %q: %v", tc.name, rec.Body, err)
		}
		if rec.Code != tc.status || got["error"] != tc.want {
			t.Errorf("%s: %d %q, want %d %q", tc.name, rec.Code, got["error"], tc.status, tc.want)
		}
	}
}

// TestBadRequests: malformed bodies and sources degrade to 4xx, never
// 5xx or a wedged worker.
func TestBadRequests(t *testing.T) {
	_, base := startServer(t, Config{})
	resp, err := http.Post(base+"/analyze", "application/json", strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad json status = %d, want 400", resp.StatusCode)
	}
	for name, req := range map[string]Request{
		"neither":    {},
		"both":       {Source: "module m\n", Corpus: "PMDK"},
		"bad source": {Source: "module ???"},
		"bad model":  {Source: "module m\nfunc main() {\n\tret\n}\n", Model: "bogus"},
	} {
		status, _, body := post(t, base, req)
		if status < 400 || status >= 500 {
			t.Errorf("%s: status = %d (%s), want 4xx", name, status, body)
		}
	}
}

// TestHealthEndpoints: /healthz is always live, /readyz flips on drain,
// /stats serves a snapshot.
func TestHealthEndpoints(t *testing.T) {
	s, base := startServer(t, Config{})
	for _, ep := range []string{"/healthz", "/readyz", "/stats"} {
		resp, err := http.Get(base + ep)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("%s = %d, want 200", ep, resp.StatusCode)
		}
	}
	// Flip to draining: readyz refuses, healthz stays live, new
	// analyses are rejected with 503.
	s.draining.Store(true)
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/readyz", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Errorf("draining readyz = %d, want 503", rec.Code)
	}
	rec = httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
	if rec.Code != http.StatusOK {
		t.Errorf("draining healthz = %d, want 200", rec.Code)
	}
	rec = httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest("POST", "/analyze",
		strings.NewReader(`{"corpus":"PMDK"}`)))
	if rec.Code != http.StatusServiceUnavailable {
		t.Errorf("draining analyze = %d, want 503", rec.Code)
	}
	s.draining.Store(false)
}

// TestLoadShedding: with one worker and a one-deep queue, a burst of
// stalled requests sheds the overflow with 429 + Retry-After — the
// queue never grows unboundedly and every request gets a response.
func TestLoadShedding(t *testing.T) {
	s, base := startServer(t, Config{
		MaxInFlight:    1,
		QueueDepth:     1,
		RequestTimeout: 10 * time.Second,
		Chaos:          Chaos{StallFirst: 20, Stall: 250 * time.Millisecond},
	})
	const n = 10
	statuses := make([]int, n)
	retryAfter := make([]string, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			src := fmt.Sprintf("module m%d\ntype t struct {\n\ta: int\n}\nfunc main() {\n\t%%p = palloc t\n\tstore %%p.a, %d @4\n\tret\n}\n", i, i)
			status, hdr, _ := post(t, base, Request{Source: src})
			statuses[i] = status
			retryAfter[i] = hdr.Get("Retry-After")
		}(i)
	}
	wg.Wait()
	ok, shed := 0, 0
	for i, st := range statuses {
		switch st {
		case http.StatusOK:
			ok++
		case http.StatusTooManyRequests:
			shed++
			if retryAfter[i] == "" {
				t.Errorf("shed response %d lacks Retry-After", i)
			}
		default:
			t.Errorf("request %d: unexpected status %d", i, st)
		}
	}
	if shed == 0 {
		t.Fatalf("no requests shed (ok=%d); queue bound not enforced", ok)
	}
	if ok == 0 {
		t.Fatalf("no requests completed")
	}
	st := s.Snapshot()
	if st.Shed == 0 {
		t.Errorf("stats.Shed = 0, want > 0")
	}
	if st.QueueHighWater > int64(s.cfg.QueueDepth) {
		t.Errorf("queue high water %d exceeded bound %d", st.QueueHighWater, s.cfg.QueueDepth)
	}
}

// TestCoalescing: identical concurrent requests share one execution and
// return identical bytes.
func TestCoalescing(t *testing.T) {
	s, base := startServer(t, Config{
		MaxInFlight: 2,
		Chaos:       Chaos{StallFirst: 1, Stall: 300 * time.Millisecond},
	})
	const n = 6
	bodies := make([][]byte, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			status, _, body := post(t, base, Request{Corpus: "PMFS"})
			if status != http.StatusOK {
				t.Errorf("request %d: status %d", i, status)
			}
			bodies[i] = body
		}(i)
	}
	wg.Wait()
	for i := 1; i < n; i++ {
		if !bytes.Equal(bodies[0], bodies[i]) {
			t.Fatalf("coalesced bodies differ between request 0 and %d", i)
		}
	}
	if s.Snapshot().Coalesced == 0 {
		t.Errorf("stats.Coalesced = 0, want > 0 (identical concurrent requests)")
	}
}

// TestPassSelectionValidation: an unknown or contract-inapplicable pass
// selection is the client's error, a 400 before any analysis runs, and
// it never changes what a later valid request gets back.  Each bad
// selection below names DMC-S03.
func TestPassSelectionValidation(t *testing.T) {
	s, base := startServer(t, Config{})
	p := corpus.All()[0]
	for _, req := range []Request{
		{Corpus: p.Name, PModel: "cxl", Passes: []string{"DMC-S03"}},
		{Corpus: p.Name, PModel: "cxl", DisablePasses: []string{"DMC-S03"}},
		{Corpus: p.Name, Passes: []string{"DMC-S031"}},
	} {
		status, _, body := post(t, base, req)
		if status != http.StatusBadRequest {
			t.Fatalf("%+v: status %d (%s), want 400", req, status, body)
		}
	}
	status, hdr, body := post(t, base, Request{Corpus: p.Name})
	if status != http.StatusOK || hdr.Get("X-Deepmc-Partial") != "false" {
		t.Fatalf("valid request: status %d, partial %s: %s", status, hdr.Get("X-Deepmc-Partial"), body)
	}
	if want := batchJSON(t, p); !bytes.Equal(body, want) {
		t.Errorf("valid request after bad selections differs from batch\nserve: %s\nbatch: %s", body, want)
	}
	if st := s.Snapshot(); st.Failures != 0 {
		t.Errorf("stats.Failures = %d, want 0: a bad selection is not an analysis failure", st.Failures)
	}
}

// TestGracefulDrain: a request in flight when Shutdown starts is
// delivered, not dropped, and the lazy disk cache tier is flushed so a
// restarted daemon warms from it.
func TestGracefulDrain(t *testing.T) {
	dir := t.TempDir()
	s, base := startServer(t, Config{
		CacheDir: dir,
		Chaos:    Chaos{StallFirst: 1, Stall: 300 * time.Millisecond},
	})
	p := corpus.All()[0]
	want := batchJSON(t, p)

	type resp struct {
		status int
		body   []byte
	}
	got := make(chan resp, 1)
	go func() {
		status, _, body := post(t, base, Request{Corpus: p.Name})
		got <- resp{status, body}
	}()
	time.Sleep(100 * time.Millisecond) // let the request get in flight
	if err := s.Close(); err != nil {
		t.Fatalf("graceful shutdown: %v", err)
	}
	r := <-got
	if r.status != http.StatusOK {
		t.Fatalf("in-flight request dropped during drain: status %d", r.status)
	}
	if !bytes.Equal(r.body, want) {
		t.Errorf("drained request returned wrong report")
	}
	// Drain flushed the lazy tier: the cache dir holds verdict entries.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) == 0 {
		t.Fatalf("drain did not flush the disk cache tier")
	}
	if s.Snapshot().CacheFlushed == 0 {
		t.Errorf("stats.CacheFlushed = 0, want > 0")
	}

	// A restarted daemon warms from the flushed tier and still renders
	// byte-identical reports.
	s2, base2 := startServer(t, Config{CacheDir: dir})
	status, _, body := post(t, base2, Request{Corpus: p.Name})
	if status != http.StatusOK {
		t.Fatalf("restarted server: status %d", status)
	}
	if !bytes.Equal(body, want) {
		t.Errorf("warm restarted report differs from batch report")
	}
	if cs := s2.CacheStats(); cs.DiskHits == 0 {
		t.Errorf("restarted server did not hit the flushed disk tier: %+v", cs)
	}
}

// TestDrainingRejectsNewRequests: once draining, new requests on open
// connections get 503 + Connection: close.
func TestDrainingRejectsNewRequests(t *testing.T) {
	s, err := NewServer(Config{})
	if err != nil {
		t.Fatal(err)
	}
	s.draining.Store(true)
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest("POST", "/analyze",
		strings.NewReader(`{"corpus":"PMDK"}`)))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503", rec.Code)
	}
	if rec.Header().Get("Connection") != "close" {
		t.Errorf("draining response should ask the client to close the connection")
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Errorf("draining response lacks Retry-After")
	}
}
