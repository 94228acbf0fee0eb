package fleet

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"deepmc/internal/anacache"
	"deepmc/internal/core"
	"deepmc/internal/corpus"
	"deepmc/internal/ir"
	"deepmc/internal/report"
	"deepmc/internal/serve"
)

// httpJobs is testJobs in wire form: corpus jobs carry their corpus
// name, generated apps carry printed PIR source — and the local Module
// (the batch reference) is parsed from those exact bytes, so reference
// and remote analyses see identical text.
func httpJobs(t *testing.T, n int) []Job {
	t.Helper()
	var jobs []Job
	for _, p := range corpus.All() {
		m, err := p.Module()
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, Job{
			Name: p.Name, Module: m, Corpus: p.Name,
			Config: core.Config{Model: p.Model.String(), Workers: 1},
		})
	}
	for i := 0; i < n; i++ {
		// Underscored names: hyphens do not survive the PIR print→parse
		// round trip that puts these jobs on the wire.
		name := fmt.Sprintf("app_%02d", i)
		src := ir.Print(core.GenerateApp(core.AppSpec{Name: name, Funcs: 10 + i%7, CallDepth: 2, Seed: int64(1000 + i)}))
		m, err := ir.Parse(src)
		if err != nil {
			t.Fatalf("reparse %s: %v", name, err)
		}
		jobs = append(jobs, Job{
			Name: name, Module: m, Source: src,
			Config: core.Config{Model: "epoch", AllFunctions: true, Workers: 1},
		})
	}
	return jobs
}

// startShardServer runs an in-process serve daemon on a loopback
// listener — the package-test stand-in for a real shard process (the
// fleet gate's HTTP rounds spawn genuine processes).
func startShardServer(t *testing.T, tierURL string) (*serve.Server, string) {
	t.Helper()
	s, err := serve.NewServer(serve.Config{TierURL: tierURL, DrainTimeout: 2 * time.Second})
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

func httpFleet(t *testing.T, urls []string, mutate func(*Config)) *Fleet {
	t.Helper()
	cfg := Config{
		Shards: len(urls),
		Seed:   7,
		NewTransport: func(shard int, _ *anacache.Cache) (Transport, error) {
			return NewHTTPTransport(urls[shard], HTTPOptions{RequestTimeout: 20 * time.Second}), nil
		},
	}
	if mutate != nil {
		mutate(&cfg)
	}
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	return f
}

// TestHTTPFleetMatchesBatch: jobs travel over real HTTP to in-process
// shard daemons and the merged output is byte-identical to batch.
func TestHTTPFleetMatchesBatch(t *testing.T) {
	jobs := httpJobs(t, 6)
	ref := batchRender(t, jobs)
	urls := make([]string, 3)
	for i := range urls {
		_, urls[i] = startShardServer(t, "")
	}
	f := httpFleet(t, urls, nil)
	res := f.Run(context.Background(), jobs)
	if err := res.Err(); err != nil {
		t.Fatalf("http fleet failed: %v", err)
	}
	if res.Render() != ref {
		t.Fatal("http fleet output diverges from batch")
	}
}

// TestHTTPTransportRefusesModuleOnlyJobs: a job without its wire form
// is a terminal error, not a silent re-print (which could shift line
// numbers and corrupt byte-identity).
func TestHTTPTransportRefusesModuleOnlyJobs(t *testing.T) {
	_, url := startShardServer(t, "")
	tr := NewHTTPTransport(url, HTTPOptions{})
	defer tr.Close()
	jobs := testJobs(t, 1) // Module only, no Source/Corpus
	_, err := tr.Analyze(context.Background(), jobs[len(jobs)-1])
	var ne *NetError
	if !errors.As(err, &ne) || ne.Class != ErrTerminal {
		t.Fatalf("want terminal NetError, got %v", err)
	}
}

// TestHTTPTransportRefusesUncarriedConfig: a job whose configuration
// sets a field /analyze has no slot for fails terminally, naming the
// field, instead of being analyzed over the wire with that field's
// default (which the in-process transport would not do).
func TestHTTPTransportRefusesUncarriedConfig(t *testing.T) {
	_, url := startShardServer(t, "")
	tr := NewHTTPTransport(url, HTTPOptions{})
	defer tr.Close()
	for field, cfg := range map[string]core.Config{
		"FieldInsensitive": {FieldInsensitive: true},
		"MaxPaths":         {MaxPaths: 8},
	} {
		job := Job{Name: "bank", Corpus: "PMDK", Config: cfg}
		_, err := tr.Analyze(context.Background(), job)
		var ne *NetError
		if !errors.As(err, &ne) || ne.Class != ErrTerminal || !strings.Contains(ne.Msg, field) {
			t.Errorf("%s: want a terminal NetError naming the field, got %v", field, err)
		}
	}
}

// truncateOnce forwards to a real shard daemon but kills the
// connection halfway through the first /analyze response body — after
// the full Content-Length and checksum headers have been sent.  The
// wire-level shape of a shard process dying mid-response.
type truncateOnce struct {
	inner http.Handler
	mu    sync.Mutex
	used  bool
}

func (h *truncateOnce) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	h.mu.Lock()
	first := !h.used && r.URL.Path == "/analyze"
	if first {
		h.used = true
	}
	h.mu.Unlock()
	if !first {
		h.inner.ServeHTTP(w, r)
		return
	}
	rec := httptest.NewRecorder()
	h.inner.ServeHTTP(rec, r)
	body := rec.Body.Bytes()
	hj, ok := w.(http.Hijacker)
	if !ok {
		h.inner.ServeHTTP(w, r)
		return
	}
	conn, buf, err := hj.Hijack()
	if err != nil {
		return
	}
	defer conn.Close()
	fmt.Fprintf(buf, "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: %d\r\n%s: %s\r\nX-Deepmc-Exit: 0\r\nX-Deepmc-Partial: false\r\n\r\n",
		len(body), anacache.SumHeader, anacache.BodySum(body))
	buf.Write(body[:len(body)/2])
	buf.Flush()
}

// TestShardDeathMidResponseRequeues: a response truncated mid-body is
// discarded and the job re-runs — never trusted — exactly like a
// killed in-process shard (the satellite regression for partial
// hardening over the wire).
func TestShardDeathMidResponseRequeues(t *testing.T) {
	jobs := httpJobs(t, 1)
	ref := batchRender(t, jobs)

	s, err := serve.NewServer(serve.Config{DrainTimeout: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(&truncateOnce{inner: s.Handler()})
	defer front.Close()
	defer s.Close()

	f := httpFleet(t, []string{front.URL}, func(c *Config) {
		c.RetryBase = 2 * time.Millisecond
	})
	res := f.Run(context.Background(), jobs)
	if err := res.Err(); err != nil {
		t.Fatalf("truncated first response should requeue, not fail: %v", err)
	}
	if res.Render() != ref {
		t.Fatal("output after mid-response truncation diverges from batch")
	}
	st := res.Stats
	if st.NetRequeues == 0 {
		t.Fatalf("expected a free net requeue, stats = %+v", st)
	}
	if st.Retries != 0 {
		t.Fatalf("a wire truncation must not consume the retry budget, stats = %+v", st)
	}
}

// corruptTierGETs flips a byte in every tier GET body (re-framing the
// checksum-relevant headers untouched), so the shard's RemoteBacking
// must reject each read.
func corruptTierGETs(next http.Handler) http.Handler {
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
		for k, vs := range rec.Header() {
			h[k] = vs
		}
		h.Set("Content-Length", strconv.Itoa(len(body)))
		w.WriteHeader(rec.Code)
		w.Write(body)
	})
}

// TestTierWireCorruptionDegradesToRecompute: flipped bytes in tier GET
// responses make every tier read a counted cache miss; the fleet
// recomputes and stays byte-identical to batch.
func TestTierWireCorruptionDegradesToRecompute(t *testing.T) {
	jobs := httpJobs(t, 3)
	ref := batchRender(t, jobs)

	tier, err := anacache.NewLazy(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer tier.FlushLoop(50 * time.Millisecond)()
	tierSrv := httptest.NewServer(corruptTierGETs(anacache.BackingHandler(tier)))
	defer tierSrv.Close()

	run := func() (*Result, []*serve.Server) {
		urls := make([]string, 2)
		servers := make([]*serve.Server, 2)
		for i := range urls {
			servers[i], urls[i] = startShardServer(t, tierSrv.URL)
		}
		f := httpFleet(t, urls, nil)
		return f.Run(context.Background(), jobs), servers
	}

	// Round 1 warms the tier (PUTs are clean; the empty tier's GETs
	// are 404 misses).  Round 2's fresh shard caches must read through
	// — and reject — the corrupted GET bodies, then recompute.
	res1, _ := run()
	if err := res1.Err(); err != nil {
		t.Fatal(err)
	}
	res2, servers := run()
	if err := res2.Err(); err != nil {
		t.Fatal(err)
	}
	if res1.Render() != ref || res2.Render() != ref {
		t.Fatal("tier corruption leaked into the merged reports")
	}
	var corrupt, gets uint64
	for _, s := range servers {
		st := s.TierStats()
		corrupt += st.Corrupt
		gets += st.Gets
	}
	if gets == 0 {
		t.Fatal("round 2 never consulted the tier — the test exercised nothing")
	}
	if corrupt == 0 {
		t.Fatalf("corrupted tier bodies were not counted: gets=%d corrupt=%d", gets, corrupt)
	}
}

// TestThrottleHonorsRetryAfter: 429s delay by the server's Retry-After
// (not the default backoff), consume retry budget, and never feed the
// breaker.
func TestThrottleHonorsRetryAfter(t *testing.T) {
	jobs := testJobs(t, 0)[:1]
	ref := batchRender(t, jobs)
	const serverDelay = 120 * time.Millisecond
	var calls int
	var mu sync.Mutex
	f, err := New(Config{
		Shards: 1, Seed: 3,
		MaxRetries: 3,
		RetryBase:  time.Millisecond, RetryMax: 2 * time.Millisecond, // default backoff would be ~instant
		HedgeAfter: -1,
		NewTransport: func(shard int, tier *anacache.Cache) (Transport, error) {
			real, err := newLocalTransport(tier)
			if err != nil {
				return nil, err
			}
			return transportFunc(func(ctx context.Context, job Job) (*report.Report, error) {
				mu.Lock()
				calls++
				n := calls
				mu.Unlock()
				if n <= 2 {
					return nil, &NetError{Class: ErrThrottle, Status: 429, RetryAfter: serverDelay, Msg: "queue full"}
				}
				return real.Analyze(ctx, job)
			}), nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	start := time.Now()
	res := f.Run(context.Background(), jobs)
	elapsed := time.Since(start)
	if err := res.Err(); err != nil {
		t.Fatalf("throttled job should eventually run: %v", err)
	}
	if res.Render() != ref {
		t.Fatal("throttled run diverges from batch")
	}
	if elapsed < 2*serverDelay {
		t.Fatalf("retries ignored Retry-After: elapsed %v < %v", elapsed, 2*serverDelay)
	}
	st := res.Stats
	if st.Throttled != 2 || st.Retries != 2 {
		t.Fatalf("stats = %+v, want throttled=2 retries=2", st)
	}
	if f.breakers.Tripped(shardID(0)) {
		t.Fatal("shedding fed the breaker")
	}
}

// TestTerminalErrorFailsImmediately: a 4xx is the job's outcome with
// no retries and no breaker damage; the rest of the batch completes.
func TestTerminalErrorFailsImmediately(t *testing.T) {
	_, url := startShardServer(t, "")
	f := httpFleet(t, []string{url}, nil)
	wire := httpJobs(t, 2)
	// The poison job has a Module but no Source/Corpus: the HTTP
	// transport rejects it terminally; wire-shaped jobs run normally.
	poison := testJobs(t, 0)[:1]
	poison[0].Name = "poison"
	jobs := append(poison, wire...)
	res := f.Run(context.Background(), jobs)
	if res.Errs[0] == nil {
		t.Fatal("poison job should fail terminally")
	}
	for i := 1; i < len(jobs); i++ {
		if res.Errs[i] != nil {
			t.Fatalf("job %s failed: %v", jobs[i].Name, res.Errs[i])
		}
	}
	if st := res.Stats; st.Retries != 0 {
		t.Fatalf("terminal failure consumed retries: %+v", st)
	}
}
