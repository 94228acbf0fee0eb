// The wire form of the shared verdict tier: BackingHandler serves any
// Backing over HTTP (`deepmc tier` and the fleet gate's HTTP rounds
// mount a lazy Cache here), and RemoteBacking is the client side a
// shard daemon attaches under its local cache.
//
// The trust model is deliberately asymmetric to the local disk tier:
// the network can truncate, corrupt or reorder bytes in ways a local
// rename cannot, so every response body is content-checksummed
// (X-Deepmc-Sum, sha256) and length-framed, and anything that fails
// verification — short body, bad sum, unparseable JSON, wrong format
// version — degrades to a cache miss, never to a verdict.  A remote
// tier can cost a recompute; it can never corrupt a report.
package anacache

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"deepmc/internal/dsa"
	"deepmc/internal/report"
)

// SumHeader carries the sha256 hex of a tier response/request body.
const SumHeader = "X-Deepmc-Sum"

// BodySum is the content checksum both tier endpoints and the analyze
// endpoint stamp on responses.
func BodySum(body []byte) string {
	h := sha256.Sum256(body)
	return hex.EncodeToString(h[:])
}

// RemoteStats counts a RemoteBacking's wire traffic.
type RemoteStats struct {
	Gets    uint64 `json:"gets"`
	Hits    uint64 `json:"hits"`
	Misses  uint64 `json:"misses"`
	Puts    uint64 `json:"puts"`
	Corrupt uint64 `json:"corrupt"` // bodies rejected by checksum/parse — degraded to misses
	Errors  uint64 `json:"errors"`  // transport/status failures (both directions)
	Dropped uint64 `json:"dropped"` // stores discarded because the write-behind queue was full
}

// RemoteBacking implements Backing over a tier served by
// BackingHandler.  Lookups are synchronous bounded GETs; stores queue
// behind a single writer goroutine (write-behind — the analysis hot
// path never waits on the wire), and Flush drains that queue for the
// daemon's graceful shutdown so an acknowledged verdict survives a
// drain/restart cycle.
type RemoteBacking struct {
	base    string
	hc      *http.Client
	timeout time.Duration

	mu       sync.Mutex
	cond     *sync.Cond
	queue    []putItem
	inflight bool
	closed   bool
	stats    RemoteStats

	wg sync.WaitGroup
}

type putItem struct {
	k Key
	e diskEntry
}

// maxQueuedPuts bounds the write-behind backlog; past it stores are
// dropped (and counted) rather than growing without bound against a
// slow or dead tier.
const maxQueuedPuts = 4096

// RemoteOptions tunes a RemoteBacking.
type RemoteOptions struct {
	// Client overrides the HTTP client (nil = a fresh default client).
	Client *http.Client
	// Timeout bounds each wire operation (default 2s).
	Timeout time.Duration
}

// NewRemoteBacking builds a client for the tier at base (e.g.
// "http://coordinator:7438/tier").  Close it to stop the writer.
func NewRemoteBacking(base string, opts RemoteOptions) *RemoteBacking {
	hc := opts.Client
	if hc == nil {
		hc = &http.Client{}
	}
	timeout := opts.Timeout
	if timeout <= 0 {
		timeout = 2 * time.Second
	}
	rb := &RemoteBacking{base: strings.TrimRight(base, "/"), hc: hc, timeout: timeout}
	rb.cond = sync.NewCond(&rb.mu)
	rb.wg.Add(1)
	go rb.writer()
	return rb
}

func (rb *RemoteBacking) url(k Key) string { return rb.base + "/" + k.Hex() }

// LookupVerdicts implements Backing: a checksummed GET.  Any failure —
// refused, timed out, short, corrupt, wrong status — is a miss.
func (rb *RemoteBacking) LookupVerdicts(k Key) ([]report.Warning, bool) {
	rb.bump(func(s *RemoteStats) { s.Gets++ })
	ctx, cancel := context.WithTimeout(context.Background(), rb.timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, rb.url(k), nil)
	if err != nil {
		rb.bump(func(s *RemoteStats) { s.Errors++; s.Misses++ })
		return nil, false
	}
	resp, err := rb.hc.Do(req)
	if err != nil {
		rb.bump(func(s *RemoteStats) { s.Errors++; s.Misses++ })
		return nil, false
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNotFound {
		rb.bump(func(s *RemoteStats) { s.Misses++ })
		return nil, false
	}
	if resp.StatusCode != http.StatusOK {
		rb.bump(func(s *RemoteStats) { s.Errors++; s.Misses++ })
		return nil, false
	}
	body, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		// Truncated mid-body (a reset, a killed tier) — a miss.
		rb.bump(func(s *RemoteStats) { s.Errors++; s.Misses++ })
		return nil, false
	}
	e, ok := decodeWireEntry(resp.Header.Get(SumHeader), resp.ContentLength, body)
	if !ok {
		rb.bump(func(s *RemoteStats) { s.Corrupt++; s.Misses++ })
		return nil, false
	}
	ws := e.Warnings
	if ws == nil {
		ws = []report.Warning{}
	}
	rb.bump(func(s *RemoteStats) { s.Hits++ })
	return ws, true
}

// decodeWireEntry verifies framing + checksum + format and parses one
// tier entry.  Shared by both wire directions: the server distrusts
// PUT bodies exactly as the client distrusts GET bodies.
func decodeWireEntry(sum string, contentLength int64, body []byte) (diskEntry, bool) {
	if contentLength >= 0 && int64(len(body)) != contentLength {
		return diskEntry{}, false
	}
	if sum == "" || sum != BodySum(body) {
		return diskEntry{}, false
	}
	var e diskEntry
	if err := json.Unmarshal(body, &e); err != nil || e.Format != diskFormat {
		return diskEntry{}, false
	}
	return e, true
}

// StoreVerdicts implements Backing: enqueue for the write-behind writer.
func (rb *RemoteBacking) StoreVerdicts(k Key, ws []report.Warning, sum dsa.FuncSummary) {
	rb.mu.Lock()
	defer rb.mu.Unlock()
	if rb.closed {
		return
	}
	if len(rb.queue) >= maxQueuedPuts {
		rb.stats.Dropped++
		return
	}
	rb.queue = append(rb.queue, putItem{k, diskEntry{Format: diskFormat, Warnings: ws, DSA: sum}})
	rb.cond.Broadcast()
}

func (rb *RemoteBacking) writer() {
	defer rb.wg.Done()
	for {
		rb.mu.Lock()
		for len(rb.queue) == 0 && !rb.closed {
			rb.cond.Wait()
		}
		if len(rb.queue) == 0 && rb.closed {
			rb.mu.Unlock()
			return
		}
		item := rb.queue[0]
		rb.queue = rb.queue[1:]
		rb.inflight = true
		rb.mu.Unlock()

		rb.put(item)

		rb.mu.Lock()
		rb.inflight = false
		rb.cond.Broadcast()
		rb.mu.Unlock()
	}
}

func (rb *RemoteBacking) put(item putItem) {
	body, err := json.Marshal(item.e)
	if err != nil {
		rb.bump(func(s *RemoteStats) { s.Errors++ })
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), rb.timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPut, rb.url(item.k), bytes.NewReader(body))
	if err != nil {
		rb.bump(func(s *RemoteStats) { s.Errors++ })
		return
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(SumHeader, BodySum(body))
	req.ContentLength = int64(len(body))
	resp, err := rb.hc.Do(req)
	if err != nil {
		rb.bump(func(s *RemoteStats) { s.Errors++ })
		return
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusNoContent {
		rb.bump(func(s *RemoteStats) { s.Errors++ })
		return
	}
	rb.bump(func(s *RemoteStats) { s.Puts++ })
}

// Flush blocks until every queued store has been attempted (or ctx
// ends) — the shard daemon's drain path, so a verdict acknowledged to
// a client is on the shared tier before the process exits.
func (rb *RemoteBacking) Flush(ctx context.Context) error {
	stop := context.AfterFunc(ctx, func() {
		rb.mu.Lock()
		rb.cond.Broadcast()
		rb.mu.Unlock()
	})
	defer stop()
	rb.mu.Lock()
	defer rb.mu.Unlock()
	for (len(rb.queue) > 0 || rb.inflight) && ctx.Err() == nil {
		rb.cond.Wait()
	}
	if ctx.Err() != nil && (len(rb.queue) > 0 || rb.inflight) {
		return fmt.Errorf("anacache: remote flush interrupted with %d puts pending: %w", len(rb.queue), ctx.Err())
	}
	return nil
}

// Stats snapshots the wire counters.
func (rb *RemoteBacking) Stats() RemoteStats {
	rb.mu.Lock()
	defer rb.mu.Unlock()
	return rb.stats
}

func (rb *RemoteBacking) bump(f func(*RemoteStats)) {
	rb.mu.Lock()
	f(&rb.stats)
	rb.mu.Unlock()
}

// Close stops the writer after draining what it can within a short
// bound.  Call Flush first when durability matters.
func (rb *RemoteBacking) Close() error {
	ctx, cancel := context.WithTimeout(context.Background(), rb.timeout)
	defer cancel()
	rb.Flush(ctx)
	rb.mu.Lock()
	rb.closed = true
	rb.cond.Broadcast()
	rb.mu.Unlock()
	rb.wg.Wait()
	return nil
}

// BackingHandler serves a Backing over HTTP: GET /{keyhex} returns the
// checksummed entry (404 on miss), PUT /{keyhex} stores one.  Bodies
// failing checksum or format verification are rejected — the tier
// never stores bytes it could not verify.
func BackingHandler(b Backing) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hexKey := strings.Trim(r.URL.Path, "/")
		if i := strings.LastIndexByte(hexKey, '/'); i >= 0 {
			hexKey = hexKey[i+1:]
		}
		raw, err := hex.DecodeString(hexKey)
		if err != nil || len(raw) != len(Key{}) {
			http.Error(w, "bad tier key", http.StatusBadRequest)
			return
		}
		var k Key
		copy(k[:], raw)
		switch r.Method {
		case http.MethodGet:
			ws, ok := b.LookupVerdicts(k)
			if !ok {
				http.Error(w, "miss", http.StatusNotFound)
				return
			}
			if ws == nil {
				ws = []report.Warning{}
			}
			body, err := json.Marshal(diskEntry{Format: diskFormat, Warnings: ws})
			if err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
				return
			}
			h := w.Header()
			h.Set("Content-Type", "application/json")
			h.Set(SumHeader, BodySum(body))
			h.Set("Content-Length", strconv.Itoa(len(body)))
			w.Write(body)
		case http.MethodPut:
			body, err := io.ReadAll(io.LimitReader(r.Body, 64<<20))
			if err != nil {
				http.Error(w, "short body", http.StatusBadRequest)
				return
			}
			e, ok := decodeWireEntry(r.Header.Get(SumHeader), r.ContentLength, body)
			if !ok {
				http.Error(w, "checksum or format mismatch", http.StatusBadRequest)
				return
			}
			b.StoreVerdicts(k, e.Warnings, e.DSA)
			w.WriteHeader(http.StatusNoContent)
		default:
			http.Error(w, "GET or PUT", http.StatusMethodNotAllowed)
		}
	})
}
