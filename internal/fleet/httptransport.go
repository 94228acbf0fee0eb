package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"time"

	"deepmc/internal/anacache"
	"deepmc/internal/report"
	"deepmc/internal/serve"
)

// HTTPTransport drives one `deepmc serve -shard` daemon as a fleet
// shard.  The deployment shape: every shard host runs a daemon with a
// memory-only local cache attached (via -tier) to the coordinator's
// verdict tier; the coordinator holds only this client.
//
// The wire discipline mirrors the in-process trust model exactly:
//
//   - Every analyze response is verified end to end — Content-Length
//     framing, X-Deepmc-Sum body checksum, JSON parse — before a
//     single byte is trusted.  A short or corrupt body is classified
//     ErrCorrupt and the job requeues for free, exactly like a report
//     from a killed in-process shard.
//   - A response flagged X-Deepmc-Partial is a degraded report (the
//     daemon hit its deadline or a breaker), not the batch answer;
//     byte-identity forbids trusting it, so it classifies ErrServer
//     and retries.
//   - Jobs travel as PIR source text (or a corpus name), so the shard
//     daemon parses exactly the bytes the coordinator's reference
//     analysis parsed — placement can move a job anywhere without
//     perturbing a line number.
type HTTPTransport struct {
	base    string
	hc      *http.Client
	timeout time.Duration
	ownsHC  bool
}

// HTTPOptions tunes an HTTPTransport.
type HTTPOptions struct {
	// Client overrides the HTTP client (nil builds one from Dial).
	Client *http.Client
	// Dial overrides the dialer of the built client — the netfault
	// injector hooks in here.  Ignored when Client is set.
	Dial func(ctx context.Context, network, addr string) (net.Conn, error)
	// RequestTimeout bounds each analyze round trip (default 30s).
	RequestTimeout time.Duration
	// DisableKeepAlives forces a fresh dial per request.  The chaos
	// gate sets it so every request draws its own netfault plan.
	DisableKeepAlives bool
}

// NewHTTPTransport builds a transport for the shard daemon at base
// (e.g. "http://10.0.0.3:7437").
func NewHTTPTransport(base string, opts HTTPOptions) *HTTPTransport {
	timeout := opts.RequestTimeout
	if timeout <= 0 {
		timeout = 30 * time.Second
	}
	hc := opts.Client
	owns := false
	if hc == nil {
		tr := &http.Transport{
			DialContext:       opts.Dial,
			DisableKeepAlives: opts.DisableKeepAlives,
			MaxIdleConns:      8,
			IdleConnTimeout:   30 * time.Second,
		}
		hc = &http.Client{Transport: tr}
		owns = true
	}
	return &HTTPTransport{base: strings.TrimRight(base, "/"), hc: hc, timeout: timeout, ownsHC: owns}
}

// Analyze implements Transport over POST /analyze.
func (t *HTTPTransport) Analyze(ctx context.Context, job Job) (*report.Report, error) {
	wreq, err := wireRequest(job)
	if err != nil {
		return nil, &NetError{Class: ErrTerminal, Msg: err.Error()}
	}
	payload, err := json.Marshal(wreq)
	if err != nil {
		return nil, &NetError{Class: ErrTerminal, Msg: "marshal request: " + err.Error()}
	}
	rctx, cancel := context.WithTimeout(ctx, t.timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(rctx, http.MethodPost, t.base+"/analyze", bytes.NewReader(payload))
	if err != nil {
		return nil, &NetError{Class: ErrTerminal, Msg: err.Error()}
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := t.hc.Do(req)
	if err != nil {
		if ctx.Err() != nil && rctx.Err() != context.DeadlineExceeded {
			// The shard context died (kill, run end) — surface that, not
			// a transport class, so the worker's own classification runs.
			return nil, ctx.Err()
		}
		return nil, classifyTransportErr(err)
	}
	defer resp.Body.Close()
	body, rerr := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if rerr != nil {
		// Died mid-body: a reset or a shard kill between header and
		// payload.  Connection-class, never trusted.
		return nil, classifyTransportErr(fmt.Errorf("reading response: %w", rerr))
	}
	if resp.StatusCode != http.StatusOK {
		return nil, classifyStatus(resp.StatusCode, resp.Header.Get("Retry-After"), body)
	}
	if resp.ContentLength >= 0 && int64(len(body)) != resp.ContentLength {
		return nil, &NetError{Class: ErrCorrupt,
			Msg: fmt.Sprintf("body length %d != declared %d", len(body), resp.ContentLength)}
	}
	if sum := resp.Header.Get(anacache.SumHeader); sum == "" || sum != anacache.BodySum(body) {
		return nil, &NetError{Class: ErrCorrupt, Msg: "report checksum mismatch"}
	}
	if resp.Header.Get("X-Deepmc-Partial") == "true" {
		return nil, &NetError{Class: ErrServer, Status: resp.StatusCode,
			Msg: "shard returned a degraded partial report"}
	}
	rep, err := report.ParseJSON(body)
	if err != nil {
		return nil, &NetError{Class: ErrCorrupt, Msg: "unparseable report: " + err.Error()}
	}
	return rep, nil
}

// Probe implements Transport: a cheap readiness check.  A draining or
// dead daemon probes unhealthy, which is what trips (and un-trips)
// the shard's breaker.
func (t *HTTPTransport) Probe(ctx context.Context) error {
	pctx, cancel := context.WithTimeout(ctx, time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(pctx, http.MethodGet, t.base+"/readyz", nil)
	if err != nil {
		return err
	}
	resp, err := t.hc.Do(req)
	if err != nil {
		return err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("fleet: shard readyz: %d", resp.StatusCode)
	}
	return nil
}

// Close releases the transport's idle connections.
func (t *HTTPTransport) Close() error {
	if t.ownsHC {
		if tr, ok := t.hc.Transport.(*http.Transport); ok {
			tr.CloseIdleConnections()
		}
	}
	return nil
}

// wireRequest shapes a Job for POST /analyze.  Jobs must carry Source
// or Corpus: serializing a live module by printing it could shift line
// numbers and break fleet==batch byte-identity, so the transport
// refuses to guess.  It refuses a configuration /analyze cannot carry
// for the same reason: a shard would analyze it with defaults the
// in-process fleet does not use.
func wireRequest(job Job) (serve.Request, error) {
	if job.Source == "" && job.Corpus == "" {
		return serve.Request{}, fmt.Errorf("job %q has neither Source nor Corpus: the HTTP transport needs the original text", job.Name)
	}
	cfg := job.Config
	if cfg.FieldInsensitive {
		return serve.Request{}, fmt.Errorf("job %q sets FieldInsensitive, which /analyze cannot carry", job.Name)
	}
	if cfg.MaxPaths > 0 {
		return serve.Request{}, fmt.Errorf("job %q sets MaxPaths, which /analyze cannot carry", job.Name)
	}
	req := serve.Request{
		Model:           cfg.Model,
		PModel:          cfg.PModel,
		AllFunctions:    cfg.AllFunctions,
		Passes:          cfg.Passes,
		DisablePasses:   cfg.DisablePasses,
		MaxTraceEntries: max(cfg.MaxTraceEntries, 0),
		Workers:         max(cfg.Workers, 0),
	}
	if job.Source != "" {
		req.Source = job.Source
	} else {
		req.Corpus = job.Corpus
	}
	return req, nil
}
