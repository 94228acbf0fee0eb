// Package serve is the DeepMC analysis daemon: a long-lived HTTP
// service that accepts PIR modules (or named corpus targets) and
// returns machine-readable reports.  Robustness is the product — the
// paper's own pipeline bounds loops and recursion because analysis cost
// is input-dependent, and a multi-tenant service must extend the same
// discipline to itself:
//
//   - Admission control: a bounded queue in front of a bounded worker
//     pool.  When the queue is full, new requests are shed immediately
//     with 429 + Retry-After instead of growing an unbounded backlog.
//   - Per-request budgets: every analysis runs under a deadline and a
//     trace-entry budget (core.Config.MaxTraceEntries).  A pathological
//     module degrades to a partial report with a budget-attributed skip
//     — never a hung worker or an OOM kill.
//   - Failure isolation: a rule that panics while scanning one
//     function costs that function a rule-scan skip on a partial report
//     (the checker recovers it), and any other panic in an analysis is
//     recovered into a 500 for that request alone.
//   - Request coalescing: concurrent identical requests share a single
//     execution over the shared warm cache (see flight.go).
//   - Graceful drain: Shutdown stops admission (flipping /readyz),
//     waits for in-flight analyses under a deadline (cancelling them
//     into partial reports if it expires), and flushes the lazy disk
//     cache tier so a restarted daemon warms from it.
//
// Endpoints: POST /analyze, GET /corpus/{name}, GET /healthz,
// GET /readyz, GET /stats.
package serve

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"deepmc/internal/anacache"
	"deepmc/internal/checker"
	"deepmc/internal/cli"
	"deepmc/internal/core"
	"deepmc/internal/corpus"
	"deepmc/internal/ir"
	"deepmc/internal/passes"
	"deepmc/internal/pmcontract"
	"deepmc/internal/report"
)

// Config tunes the daemon.  Zero values select production defaults.
type Config struct {
	// Addr is the listen address for ListenAndServe (default :7437).
	Addr string
	// Workers caps each request's checker worker fan-out
	// (0 = GOMAXPROCS).  Output is byte-identical for any value.
	Workers int
	// MaxInFlight bounds concurrent analyses (0 = GOMAXPROCS).
	MaxInFlight int
	// QueueDepth bounds requests waiting beyond the in-flight set
	// (default 64).  Requests arriving past it are shed with 429.
	QueueDepth int
	// RequestTimeout caps each request's total deadline, queue wait
	// included (default 30s).  Requests may ask for less, never more.
	RequestTimeout time.Duration
	// MaxTraceEntries caps each request's trace-entry budget (default
	// 4096, the batch default).  Requests may lower it, never raise it.
	MaxTraceEntries int
	// DrainTimeout bounds Close's graceful drain (default 15s).
	DrainTimeout time.Duration
	// CacheDir enables the analysis cache's disk tier in lazy mode:
	// reads hit it immediately, writes accumulate in memory and flush
	// on drain.  Empty keeps the cache memory-only.
	CacheDir string
	// TierURL attaches a remote shared verdict tier (a fleet
	// coordinator's BackingHandler endpoint) under the local cache:
	// read-through on local misses, write-behind on stores.  This is
	// shard mode's memory hierarchy — local hot cache over the fleet's
	// warm tier.  Shutdown flushes the write-behind queue so every
	// acknowledged verdict reaches the tier before the process exits.
	TierURL string
	// Chaos arms deterministic fault injection for the soak/chaos gates.
	// Zero value injects nothing.
	Chaos Chaos
}

// Chaos is the daemon's failpoint surface: deliberately injected stalls
// that let the serve gate prove the shedding and drain machinery on
// demand (the serve-side analogue of internal/faultinj).
type Chaos struct {
	// StallFirst stalls the first N analyses by Stall before they run
	// (bounded by the request deadline) — deterministic queue pressure
	// for the shedding gate.
	StallFirst int
	// Stall is the per-analysis stall duration.
	Stall time.Duration
}

// withDefaults resolves zero values.
func (c Config) withDefaults() Config {
	if c.Addr == "" {
		c.Addr = ":7437"
	}
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 30 * time.Second
	}
	if c.MaxTraceEntries <= 0 {
		c.MaxTraceEntries = 4096
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 15 * time.Second
	}
	return c
}

// Request is the /analyze body.  Exactly one of Source and Corpus must
// be set.
type Request struct {
	// Source is PIR text to analyze.
	Source string `json:"source,omitempty"`
	// Corpus names a built-in corpus target (PMDK, PMFS, NVM-Direct,
	// Mnemosyne) instead of Source.
	Corpus string `json:"corpus,omitempty"`
	// Model is the declared persistency model (default: strict, or the
	// corpus target's own model).
	Model string `json:"model,omitempty"`
	// AllFunctions checks every function standalone, not just roots.
	AllFunctions bool `json:"all_functions,omitempty"`
	// Passes / DisablePasses select rule passes by stable ID.
	Passes        []string `json:"passes,omitempty"`
	DisablePasses []string `json:"disable_passes,omitempty"`
	// MaxTraceEntries lowers the per-trace entry budget for this
	// request (clamped to the server's budget).
	MaxTraceEntries int `json:"max_trace_entries,omitempty"`
	// Workers lowers the checker fan-out (clamped to the server cap;
	// output is byte-identical for any value).
	Workers int `json:"workers,omitempty"`
	// TimeoutMs lowers the request deadline (clamped to the server
	// cap).
	TimeoutMs int `json:"timeout_ms,omitempty"`
	// PModel is the hardware persistency contract ("x86" or "cxl...";
	// empty selects the default x86 contract).
	PModel string `json:"pmodel,omitempty"`
}

// key fingerprints the analysis-relevant request fields for
// singleflight coalescing.  Workers is deliberately excluded: the
// checker's deterministic-merge guarantee makes output byte-identical
// for any worker count, so requests differing only in fan-out coalesce.
func (r Request) key() string {
	h := sha256.New()
	for _, part := range []string{
		r.Source, r.Corpus, r.Model, r.PModel,
		fmt.Sprintf("all=%v", r.AllFunctions),
		"passes=" + strings.Join(r.Passes, ","),
		"disable=" + strings.Join(r.DisablePasses, ","),
		fmt.Sprintf("entries=%d", r.MaxTraceEntries),
		fmt.Sprintf("timeout=%d", r.TimeoutMs),
	} {
		h.Write([]byte(part))
		h.Write([]byte{0})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// result is one executed request's response.
type result struct {
	status     int
	body       []byte
	exit       int  // X-Deepmc-Exit (200 responses)
	partial    bool // X-Deepmc-Partial (200 responses)
	retryAfter int  // Retry-After seconds (429/503 responses)
}

// Server is the analysis daemon.
type Server struct {
	cfg     Config
	cache   *anacache.Cache
	remote  *anacache.RemoteBacking // shard mode's tier client (nil otherwise)
	http    *http.Server
	lis     net.Listener
	admit   chan struct{} // admission slots: QueueDepth + MaxInFlight
	work    chan struct{} // concurrent-analysis slots: MaxInFlight
	flights *flightGroup

	baseCtx    context.Context // parent of every analysis; cancelled on forced drain
	cancelBase context.CancelFunc
	draining   atomic.Bool
	start      time.Time

	chaosMu    sync.Mutex
	chaosStall int

	stats serverStats
}

// serverStats are the daemon's traffic counters.
type serverStats struct {
	admitted       atomic.Int64
	completed      atomic.Int64
	shed           atomic.Int64
	coalesced      atomic.Int64
	failures       atomic.Int64
	timeouts       atomic.Int64
	queueTimeouts  atomic.Int64
	cacheFlushed   atomic.Int64
	drainForced    atomic.Int64
	queueHighWater atomic.Int64
	// queued is a gauge: requests waiting for an analysis slot.
	queued atomic.Int64
}

// Stats is the /stats snapshot.
type Stats struct {
	SchemaVersion int `json:"schema_version"`
	// Counters.
	Admitted       int64 `json:"admitted"`
	Completed      int64 `json:"completed"`
	Shed           int64 `json:"shed"`
	Coalesced      int64 `json:"coalesced"`
	Failures       int64 `json:"failures"`
	Timeouts       int64 `json:"timeouts"`
	QueueTimeouts  int64 `json:"queue_timeouts"`
	CacheFlushed   int64 `json:"cache_flushed"`
	DrainForced    int64 `json:"drain_forced"`
	QueueHighWater int64 `json:"queue_high_water"`
	// Gauges.
	Queued        int            `json:"queued"`
	InFlight      int            `json:"in_flight"`
	QueueCap      int            `json:"queue_cap"`
	Draining      bool           `json:"draining"`
	UptimeSeconds float64        `json:"uptime_seconds"`
	Cache         anacache.Stats `json:"cache"`
	CacheHitRate  float64        `json:"cache_hit_rate"`
}

// NewServer builds a daemon from cfg.  It does not listen yet; call
// ListenAndServe or Serve.
func NewServer(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	cache, err := anacache.NewLazy(cfg.CacheDir)
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg:     cfg,
		cache:   cache,
		admit:   make(chan struct{}, cfg.QueueDepth+cfg.MaxInFlight),
		work:    make(chan struct{}, cfg.MaxInFlight),
		flights: newFlightGroup(),
		start:   time.Now(),
	}
	if cfg.TierURL != "" {
		s.remote = anacache.NewRemoteBacking(cfg.TierURL, anacache.RemoteOptions{})
		cache.SetBacking(s.remote)
	}
	s.baseCtx, s.cancelBase = context.WithCancel(context.Background())
	s.chaosStall = cfg.Chaos.StallFirst

	mux := http.NewServeMux()
	mux.HandleFunc("/analyze", s.handleAnalyze)
	mux.HandleFunc("/corpus/", s.handleCorpus)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/readyz", s.handleReadyz)
	mux.HandleFunc("/stats", s.handleStats)
	s.http = &http.Server{Handler: mux, ReadHeaderTimeout: 10 * time.Second}
	return s, nil
}

// Handler exposes the daemon's routes (tests drive it without a
// listener).
func (s *Server) Handler() http.Handler { return s.http.Handler }

// Serve accepts connections on l until Shutdown.  Like
// http.Server.Serve it returns http.ErrServerClosed after a graceful
// shutdown.
func (s *Server) Serve(l net.Listener) error {
	s.lis = l
	return s.http.Serve(l)
}

// ListenAndServe listens on cfg.Addr and serves until Shutdown.
func (s *Server) ListenAndServe() error {
	l, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		return err
	}
	return s.Serve(l)
}

// Addr returns the bound listener address ("" before Serve) — tests
// listen on :0 and read the real port back.
func (s *Server) Addr() string {
	if s.lis == nil {
		return ""
	}
	return s.lis.Addr().String()
}

// Shutdown drains the daemon gracefully: admission stops immediately
// (/readyz flips to 503, new /analyze requests get 503), in-flight
// analyses run to completion under ctx's deadline, and the lazy disk
// cache tier is flushed.  If ctx expires first, in-flight analyses are
// cancelled — they degrade to partial reports and their responses are
// still delivered — and only connections that ignore that too are
// force-closed.  Idempotent; concurrent calls are safe.
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	herr := s.http.Shutdown(ctx)
	if herr != nil {
		// Deadline expired with handlers still running: cancel their
		// analyses (they finish fast with partial reports) and give the
		// responses a short grace period to flush.
		s.stats.drainForced.Add(1)
		s.cancelBase()
		gctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		if err2 := s.http.Shutdown(gctx); err2 == nil {
			herr = nil
		} else {
			s.http.Close()
		}
	}
	n, ferr := s.cache.Flush()
	s.stats.cacheFlushed.Add(int64(n))
	if s.remote != nil {
		// Shard mode's drain contract: every verdict acknowledged to a
		// client must reach the shared tier before the process exits,
		// so a restarted shard (or any sibling) warms from it.  Bounded
		// independently of ctx, which may already be expired on a
		// forced drain.
		fctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		if err := s.remote.Flush(fctx); err != nil && ferr == nil {
			ferr = err
		}
		cancel()
		s.remote.Close()
	}
	if herr != nil {
		return herr
	}
	return ferr
}

// Close is Shutdown bounded by cfg.DrainTimeout.
func (s *Server) Close() error {
	ctx, cancel := context.WithTimeout(context.Background(), s.cfg.DrainTimeout)
	defer cancel()
	return s.Shutdown(ctx)
}

// CacheStats exposes the shared cache's counters (gate assertions).
func (s *Server) CacheStats() anacache.Stats { return s.cache.Stats() }

// TierStats exposes the remote tier client's wire counters (zero when
// no tier is attached).
func (s *Server) TierStats() anacache.RemoteStats {
	if s.remote == nil {
		return anacache.RemoteStats{}
	}
	return s.remote.Stats()
}

// --- HTTP handlers ---

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Snapshot())
}

// Snapshot assembles the /stats payload.
func (s *Server) Snapshot() Stats {
	cs := s.cache.Stats()
	st := Stats{
		SchemaVersion:  report.SchemaVersion,
		Admitted:       s.stats.admitted.Load(),
		Completed:      s.stats.completed.Load(),
		Shed:           s.stats.shed.Load(),
		Coalesced:      s.stats.coalesced.Load(),
		Failures:       s.stats.failures.Load(),
		Timeouts:       s.stats.timeouts.Load(),
		QueueTimeouts:  s.stats.queueTimeouts.Load(),
		CacheFlushed:   s.stats.cacheFlushed.Load(),
		DrainForced:    s.stats.drainForced.Load(),
		QueueHighWater: s.stats.queueHighWater.Load(),
		Queued:         int(s.stats.queued.Load()),
		InFlight:       len(s.work),
		QueueCap:       s.cfg.QueueDepth,
		Draining:       s.draining.Load(),
		UptimeSeconds:  time.Since(s.start).Seconds(),
		Cache:          cs,
	}
	if total := cs.VerdictHits + cs.VerdictMisses; total > 0 {
		st.CacheHitRate = float64(cs.VerdictHits) / float64(total)
	}
	return st
}

func (s *Server) handleAnalyze(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeJSON(w, http.StatusMethodNotAllowed, map[string]string{"error": "POST only"})
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 16<<20))
	if err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeJSON(w, http.StatusRequestEntityTooLarge, map[string]string{"error": "body too large"})
		} else {
			writeJSON(w, http.StatusBadRequest, map[string]string{"error": "reading request body: " + err.Error()})
		}
		return
	}
	var req Request
	if err := json.Unmarshal(body, &req); err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": "bad request body: " + err.Error()})
		return
	}
	if (req.Source == "") == (req.Corpus == "") {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": "exactly one of source and corpus must be set"})
		return
	}
	s.serveRequest(w, req)
}

// handleCorpus maps GET /corpus/{name} to an analysis of the named
// built-in corpus target.
func (s *Server) handleCorpus(w http.ResponseWriter, r *http.Request) {
	name := strings.TrimPrefix(r.URL.Path, "/corpus/")
	if name == "" {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": "missing corpus name"})
		return
	}
	s.serveRequest(w, Request{Corpus: name})
}

// serveRequest runs admission control, coalescing and execution for one
// decoded request.
func (s *Server) serveRequest(w http.ResponseWriter, req Request) {
	if s.draining.Load() {
		w.Header().Set("Connection", "close")
		writeResult(w, &result{
			status: http.StatusServiceUnavailable,
			body:   errBody("draining: not accepting new requests"), retryAfter: 1,
		}, false)
		return
	}
	// Admission: take a bounded queue slot or shed immediately.
	select {
	case s.admit <- struct{}{}:
	default:
		s.stats.shed.Add(1)
		writeResult(w, &result{
			status: http.StatusTooManyRequests,
			body:   errBody("queue full: load shed"), retryAfter: 1,
		}, false)
		return
	}
	defer func() { <-s.admit }()
	s.stats.admitted.Add(1)

	// The request's deadline is fixed here, before coalescing, so a
	// follower parked behind a slow leader still times out on its own
	// clock (flight.go detaches it) rather than inheriting the leader's.
	ctx, cancel := context.WithTimeout(s.baseCtx, s.requestTimeout(req))
	defer cancel()
	res, coalesced := s.flights.do(ctx, req.key(), func() *result { return s.execute(ctx, req) })
	if coalesced {
		s.stats.coalesced.Add(1)
	}
	if res == nil {
		// Detached waiter: its deadline expired while coalesced behind
		// the leader.  The leader's result will still serve the other
		// followers; this caller gets a clean, retryable rejection.
		s.stats.timeouts.Add(1)
		res = &result{
			status: http.StatusServiceUnavailable,
			body:   errBody("deadline expired while coalesced behind an identical request"), retryAfter: 1,
		}
	}
	if res.status == http.StatusOK {
		s.stats.completed.Add(1)
	}
	writeResult(w, res, coalesced)
}

// requestTimeout clamps the per-request deadline against the server
// cap (requests may ask for less, never more).
func (s *Server) requestTimeout(req Request) time.Duration {
	timeout := s.cfg.RequestTimeout
	// Compare in milliseconds: converting first overflows for huge
	// values and wraps to a negative, already expired deadline.
	if ms := int64(req.TimeoutMs); ms > 0 && ms <= timeout.Milliseconds() {
		timeout = time.Duration(ms) * time.Millisecond
	}
	return timeout
}

// acquireWork takes an analysis slot, waiting until ctx is done.  Only
// a request that finds every slot busy counts as queued, from then until
// it holds a slot or gives up: a request still writing its response
// holds its admission slot but is not waiting, and two requests racing
// for a free slot are not a queue.
func (s *Server) acquireWork(ctx context.Context) bool {
	select {
	case s.work <- struct{}{}:
		return true
	default:
	}
	q := s.stats.queued.Add(1)
	defer s.stats.queued.Add(-1)
	for hw := s.stats.queueHighWater.Load(); q > hw; hw = s.stats.queueHighWater.Load() {
		if s.stats.queueHighWater.CompareAndSwap(hw, q) {
			break
		}
	}
	select {
	case s.work <- struct{}{}:
		return true
	case <-ctx.Done():
		return false
	}
}

// execute runs one analysis end to end: worker slot, chaos stall,
// budgets and rendering.  It always returns a result (panics are
// recovered into 500s).  ctx carries the request deadline, established
// by the caller before coalescing.
func (s *Server) execute(ctx context.Context, req Request) *result {
	// Wait for an analysis slot; the request deadline covers the wait.
	if !s.acquireWork(ctx) {
		s.stats.queueTimeouts.Add(1)
		return &result{
			status: http.StatusServiceUnavailable,
			body:   errBody("timed out waiting for an analysis slot"), retryAfter: 1,
		}
	}
	defer func() { <-s.work }()

	if d := s.takeStall(); d > 0 {
		select {
		case <-time.After(d):
		case <-ctx.Done():
		}
	}

	m, model, errRes := s.resolveModule(req)
	if errRes != nil {
		return errRes
	}
	rep, err := runAnalysis(ctx, m, core.Config{
		Model:           model,
		PModel:          req.PModel,
		AllFunctions:    req.AllFunctions,
		Workers:         s.clampWorkers(req.Workers),
		MaxTraceEntries: s.clampEntries(req.MaxTraceEntries),
		Passes:          req.Passes,
		DisablePasses:   req.DisablePasses,
		Cache:           s.cache,
	})
	if err != nil {
		s.stats.failures.Add(1)
		return &result{status: http.StatusInternalServerError, body: errBody(err.Error())}
	}
	if rep.Partial() && ctx.Err() != nil {
		s.stats.timeouts.Add(1)
	}
	body, err := rep.JSON()
	if err != nil {
		s.stats.failures.Add(1)
		return &result{status: http.StatusInternalServerError, body: errBody(err.Error())}
	}
	return &result{status: http.StatusOK, body: body, exit: cli.ExitCode(rep), partial: rep.Partial()}
}

// runAnalysis executes the core analysis with panic isolation: a rule
// panic is already a rule-scan skip inside the checker, so what reaches
// this recover fails only the request it came from.
func runAnalysis(ctx context.Context, m *ir.Module, cfg core.Config) (rep *report.Report, err error) {
	defer func() {
		if r := recover(); r != nil {
			rep, err = nil, fmt.Errorf("serve: analysis panicked: %v", r)
		}
	}()
	return core.AnalyzeCtx(ctx, m, cfg)
}

// takeStall consumes one chaos stall token.
func (s *Server) takeStall() time.Duration {
	if s.cfg.Chaos.Stall <= 0 {
		return 0
	}
	s.chaosMu.Lock()
	defer s.chaosMu.Unlock()
	if s.chaosStall <= 0 {
		return 0
	}
	s.chaosStall--
	return s.cfg.Chaos.Stall
}

// resolveModule validates the request's analysis options and loads its
// module: inline PIR source or a named corpus target.  A bad model,
// contract or pass selection is the client's error (400), caught here
// before any analysis runs.
func (s *Server) resolveModule(req Request) (*ir.Module, string, *result) {
	if req.Model != "" {
		if _, err := checker.ParseModel(req.Model); err != nil {
			return nil, "", &result{status: http.StatusBadRequest, body: errBody(err.Error())}
		}
	}
	ct, err := pmcontract.ParseContract(req.PModel)
	if err != nil {
		return nil, "", &result{status: http.StatusBadRequest, body: errBody(err.Error())}
	}
	if _, err := passes.ResolveEnabledFor(req.Passes, req.DisablePasses, ct.EffectiveID()); err != nil {
		return nil, "", &result{status: http.StatusBadRequest, body: errBody(err.Error())}
	}
	if req.Corpus != "" {
		c, ok := corpusModules()[req.Corpus]
		if !ok {
			return nil, "", &result{status: http.StatusNotFound,
				body: errBody(fmt.Sprintf("unknown corpus target %q", req.Corpus))}
		}
		if c.err != nil {
			return nil, "", &result{status: http.StatusInternalServerError, body: errBody(c.err.Error())}
		}
		model := req.Model
		if model == "" {
			model = c.model
		}
		return c.m, model, nil
	}
	m, err := ir.Parse(req.Source)
	if err != nil {
		return nil, "", &result{status: http.StatusBadRequest, body: errBody("parse: " + err.Error())}
	}
	if err := ir.Verify(m); err != nil {
		return nil, "", &result{status: http.StatusBadRequest, body: errBody("verify: " + err.Error())}
	}
	return m, req.Model, nil
}

// corpusModule is one built-in corpus target, parsed and verified.
type corpusModule struct {
	m     *ir.Module
	model string
	err   error
}

// corpusModules parses and verifies every built-in corpus program once
// per process.  Requests share the modules read-only: analyses never
// write to the module they are given.
var corpusModules = sync.OnceValue(func() map[string]corpusModule {
	out := make(map[string]corpusModule)
	for _, p := range corpus.All() {
		m, err := p.Module()
		out[p.Name] = corpusModule{m: m, model: p.Model.String(), err: err}
	}
	return out
})

// clampWorkers resolves the per-request worker count against the server
// cap.
func (s *Server) clampWorkers(reqWorkers int) int {
	cap := s.cfg.Workers
	if cap <= 0 {
		cap = runtime.GOMAXPROCS(0)
	}
	if reqWorkers <= 0 || reqWorkers > cap {
		return cap
	}
	return reqWorkers
}

// clampEntries resolves the per-request trace-entry budget against the
// server budget (requests may lower it, never raise it).
func (s *Server) clampEntries(reqEntries int) int {
	if reqEntries <= 0 || reqEntries > s.cfg.MaxTraceEntries {
		return s.cfg.MaxTraceEntries
	}
	return reqEntries
}

// errBody renders a JSON error payload.
func errBody(msg string) []byte {
	b, _ := json.Marshal(map[string]string{"error": msg})
	return b
}

// writeJSON writes a JSON response with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(b)
}

// writeResult writes an executed request's response with the exit-code
// contract mirrored into headers: X-Deepmc-Exit carries the 0/1/2 code
// the batch CLI would have exited with, X-Deepmc-Partial flags degraded
// reports, X-Deepmc-Coalesced marks singleflight followers.  Every body
// is length-framed and content-checksummed (X-Deepmc-Sum) so a network
// client can prove it received exactly the bytes the daemon sent — a
// truncated or corrupted report is detected, never trusted.
func writeResult(w http.ResponseWriter, res *result, coalesced bool) {
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(res.body)))
	h.Set(anacache.SumHeader, anacache.BodySum(res.body))
	if res.retryAfter > 0 {
		h.Set("Retry-After", strconv.Itoa(res.retryAfter))
	}
	if res.status == http.StatusOK {
		h.Set("X-Deepmc-Exit", strconv.Itoa(res.exit))
		h.Set("X-Deepmc-Partial", strconv.FormatBool(res.partial))
	}
	if coalesced {
		h.Set("X-Deepmc-Coalesced", "true")
	}
	w.WriteHeader(res.status)
	w.Write(res.body)
}
