package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"deepmc/internal/report"
)

// FuzzAnalyzeRequest posts arbitrary bodies to /analyze, the daemon's
// decoder of outside bytes.  The handler must not panic, a 200 must
// carry a report that report.ParseJSON accepts, and every other status
// must carry a JSON object with an "error" field.
func FuzzAnalyzeRequest(f *testing.F) {
	s, err := NewServer(Config{MaxInFlight: 1, RequestTimeout: 2 * time.Second})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { s.Close() })
	h := s.Handler()
	src := "module m\ntype t struct {\n\ta: int\n}\nfunc main() {\n\t%p = palloc t\n\tstore %p.a, 1 @4\n\tret\n}\n"
	for _, req := range []Request{
		{Source: src},
		{Source: src, TimeoutMs: 10000000000000},
		{Source: src, Model: "epoch", PModel: "cxl", AllFunctions: true, Workers: -3, MaxTraceEntries: -1},
		{Source: src, Passes: []string{"DMC-S01"}, DisablePasses: []string{"DMC-S99"}},
		{Source: src, PModel: "bogus"},
		{Source: "module m\nfunc main() {\n\tstore %q, 1\n}\n"},
		{Corpus: "PMDK"},
		{Corpus: "nosuch"},
		{Source: src, Corpus: "PMDK"},
		{},
	} {
		b, err := json.Marshal(req)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Add([]byte(`{"source":`))
	f.Add([]byte(`{"timeout_ms":1e400}`))
	f.Add([]byte("not json"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/analyze", bytes.NewReader(body)))
		if rec.Code == http.StatusOK {
			if _, err := report.ParseJSON(rec.Body.Bytes()); err != nil {
				t.Fatalf("200 body does not parse as a report: %v\nrequest: %q", err, body)
			}
			return
		}
		var e struct {
			Error *string `json:"error"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Error == nil {
			t.Fatalf("status %d body %q is not a JSON error (request %q)", rec.Code, rec.Body.Bytes(), body)
		}
	})
}
