package main

// serve-recheck: two closed-loop keep-alive clients POST the four corpus
// frameworks' PIR source to an in-process analysis server on loopback.
// A seeded 30% of requests carry a never-seen, persistency-neutral edit
// of one function; the rest resubmit a version already analyzed.  Every
// call into DeepMC made by this workload is in this file, except the
// corpus baseline and the traced re-enactment, which use the static
// pipeline adapter in pipeline.go.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"deepmc/internal/anacache"
	"deepmc/internal/ir"
	"deepmc/internal/serve"
)

const (
	serveClients = 2
	// serveFreshShare of requests carry a never-seen edit.
	serveFreshShare = 0.3
	// serveReqsPerSecond is each client's request count per nominal
	// second.
	serveReqsPerSecond = 450
	serveWarmOps       = 120
	serveOpHeader      = "X-Perfbench-Op"
)

// serveBase is one corpus framework as the clients send it.  Every
// response for it must equal its batch report.
type serveBase struct {
	corpusBase
	points []editPoint // where a neutral edit may be inserted
}

// editPoint is the offset in a base's source just inside function fn.
type editPoint struct {
	fn string
	at int
}

// serveOp is one request: a base, optionally with a neutral edit.
type serveOp struct {
	base  int
	point int   // index into points; -1 sends the base unedited
	edit  int64 // the edit's unique constant
	fresh bool  // the version has never been sent before
}

type serveRecheck struct {
	p      params
	bases  []serveBase
	baseOK bool // batch reports match the corpus ground truth
	plan   [][]serveOp

	srv    *serve.Server
	hs     *http.Server
	served chan struct{} // closed when hs.Serve returns
	url    string
	client *http.Client
	// handler timings per op, written by the timing middleware.
	hStart, hEnd []atomic.Int64
	epoch        time.Time
}

func newServeRecheck(p params) workload { return &serveRecheck{p: p} }

// neutralEdit inserts a constant assignment to an unused register at
// the edit point: the function's IR, and so its cache key, changes, but
// no persistent operation is added and no line number moves.
func neutralEdit(src string, at int, id int64) string {
	return src[:at] + fmt.Sprintf("\t%%perfbench_edit = const %d\n", id) + src[at:]
}

// editPoints returns, for each named function found in src, the offset
// just after its header line (and its file directive, if any).
func editPoints(src string, funcs []string) []editPoint {
	var pts []editPoint
	for _, fn := range funcs {
		i := strings.Index(src, "\nfunc "+fn+"(")
		if i < 0 {
			continue
		}
		at := i + 1 + strings.IndexByte(src[i+1:], '\n') + 1
		if strings.HasPrefix(strings.TrimLeft(src[at:], " \t"), "file ") {
			at += strings.IndexByte(src[at:], '\n') + 1
		}
		pts = append(pts, editPoint{fn: fn, at: at})
	}
	return pts
}

func (w *serveRecheck) text(op serveOp) string {
	b := w.bases[op.base]
	if op.point < 0 {
		return b.source
	}
	return neutralEdit(b.source, b.points[op.point].at, op.edit)
}

// loadBases reads the corpus frameworks, their batch reports and their
// edit points.
func loadBases() ([]serveBase, bool, error) {
	base, ok, err := corpusBaseline()
	if err != nil {
		return nil, false, err
	}
	bases := make([]serveBase, len(base))
	for i, b := range base {
		m, err := ir.Parse(b.source)
		if err != nil {
			return nil, false, err
		}
		bases[i] = serveBase{corpusBase: b, points: editPoints(b.source, m.FuncNames())}
	}
	return bases, ok, nil
}

// servePlan draws each client's request sequence.  A client resubmits
// only versions it has itself sent before, or a base, so every
// resubmission is a cache hit whatever the interleaving.
func servePlan(seed int64, bases []serveBase, perClient int) [][]serveOp {
	plan := make([][]serveOp, serveClients)
	for c := range plan {
		rng := rand.New(rand.NewSource(seed*104729 + int64(c)))
		sent := make([][]serveOp, len(bases))
		for b := range bases {
			sent[b] = []serveOp{{base: b, point: -1}}
		}
		for k := 0; k < perClient; k++ {
			b := rng.Intn(len(bases))
			var op serveOp
			if rng.Float64() < serveFreshShare {
				op = serveOp{base: b, point: rng.Intn(len(bases[b].points)), edit: int64(c)<<32 | int64(k), fresh: true}
				sent[b] = append(sent[b], op)
			} else {
				op = sent[b][rng.Intn(len(sent[b]))]
				op.fresh = false
			}
			plan[c] = append(plan[c], op)
		}
	}
	return plan
}

func (w *serveRecheck) close() {
	if w.hs == nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = w.hs.Shutdown(ctx) // the pass has ended; nothing is in flight
	<-w.served
	_ = w.srv.Shutdown(ctx) // memory-only cache: nothing to flush
	w.client.CloseIdleConnections()
	w.hs, w.srv = nil, nil
}

func (w *serveRecheck) setup(traced bool) error {
	w.close()
	bases, ok, err := loadBases()
	if err != nil {
		return err
	}
	w.bases, w.baseOK = bases, ok
	w.plan = servePlan(w.p.seed, bases, serveReqsPerSecond*w.p.seconds/w.p.scale)
	total := serveClients * len(w.plan[0])
	w.hStart, w.hEnd = make([]atomic.Int64, total), make([]atomic.Int64, total)

	srv, err := serve.NewServer(serve.Config{})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	h := srv.Handler()
	if traced {
		h = w.timing(h)
	}
	w.srv = srv
	w.epoch = time.Now()
	w.hs = &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	w.served = make(chan struct{})
	go func() {
		defer close(w.served)
		_ = w.hs.Serve(ln) // returns http.ErrServerClosed on Shutdown
	}()
	w.url = "http://" + ln.Addr().String() + "/analyze"
	w.client = &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: serveClients,
		MaxConnsPerHost:     serveClients,
		DisableCompression:  true,
	}}
	// Warm-up: every base (a miss that fills the cache, then a hit),
	// then hits and fresh edits whose constants the plan never uses.
	for i := 0; i < 2; i++ {
		for b := range w.bases {
			ok, err := w.post(serveOp{base: b, point: -1}, -1)
			if err != nil {
				return err
			}
			w.baseOK = w.baseOK && ok
		}
	}
	for i := 0; i < serveWarmOps; i++ {
		op := serveOp{base: i % len(w.bases), point: -1}
		if i%3 == 0 {
			op.point, op.edit = i%len(w.bases[op.base].points), -int64(i+1)
		}
		ok, err := w.post(op, -1)
		if err != nil {
			return err
		}
		w.baseOK = w.baseOK && ok
	}
	return nil
}

// timing wraps the server's handler and records each request's handler
// time in its op's slot.
func (w *serveRecheck) timing(h http.Handler) http.Handler {
	return http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		t0 := time.Since(w.epoch)
		h.ServeHTTP(rw, r)
		t1 := time.Since(w.epoch)
		if i, err := strconv.Atoi(r.Header.Get(serveOpHeader)); err == nil && i >= 0 && i < len(w.hStart) {
			w.hStart[i].Store(int64(t0))
			w.hEnd[i].Store(int64(t1))
		}
	})
}

// post sends one request and reports whether the response is a 200
// whose body equals the base's batch report.
func (w *serveRecheck) post(op serveOp, idx int) (bool, error) {
	body, err := json.Marshal(serve.Request{Source: w.text(op), Model: w.bases[op.base].model})
	if err != nil {
		return false, err
	}
	req, err := http.NewRequest(http.MethodPost, w.url, bytes.NewReader(body))
	if err != nil {
		return false, err
	}
	req.Header.Set(serveOpHeader, strconv.Itoa(idx))
	resp, err := w.client.Do(req)
	if err != nil {
		return false, err
	}
	defer resp.Body.Close()
	got, err := io.ReadAll(resp.Body)
	if err != nil {
		return false, err
	}
	return resp.StatusCode == http.StatusOK && bytes.Equal(got, w.bases[op.base].report), nil
}

func (w *serveRecheck) pass(tr *tracer) (*passResult, error) {
	n := len(w.plan[0])
	total := serveClients * n
	pr := &passResult{ops: total, layers: map[string]float64{}}
	reqStart, reqEnd := make([]time.Duration, total), make([]time.Duration, total)
	oks := make([]bool, total)
	lats := make([][]float64, serveClients)
	errs := make([]error, serveClients)
	var order []int // op indexes in completion order
	var orderMu sync.Mutex
	cache0, snap0 := w.srv.CacheStats(), w.srv.Snapshot()

	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for k, op := range w.plan[c] {
				idx := c*n + k
				t0 := time.Since(w.epoch)
				ok, err := w.post(op, idx)
				t1 := time.Since(w.epoch)
				if err != nil {
					errs[c] = fmt.Errorf("client %d op %d: %w", c, k, err)
					return
				}
				reqStart[idx], reqEnd[idx], oks[idx] = t0, t1, ok
				lats[c] = append(lats[c], ms(t1-t0))
				orderMu.Lock()
				order = append(order, idx)
				orderMu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	pr.elapsed = time.Since(start)
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	for c := range lats {
		pr.lat = append(pr.lat, lats[c]...)
	}
	if tr != nil {
		if err := w.layers(tr, pr, order, reqStart, reqEnd, oks, cache0, snap0); err != nil {
			return nil, err
		}
	}
	for _, ok := range oks {
		pr.attempted++
		if !ok || !w.baseOK {
			pr.failed++
		}
	}
	pr.units = float64(pr.attempted)
	return pr, nil
}

// layers fills the traced pass's per-layer metrics: handler and wire
// time from the middleware's slots, cache and server counters as
// deltas, and the static layers by re-enacting every request, in
// completion order, through the layered pipeline on a cache of its own.
// A re-enacted report that differs from the server's fails its op.
func (w *serveRecheck) layers(tr *tracer, pr *passResult, order []int, reqStart, reqEnd []time.Duration,
	oks []bool, cache0 anacache.Stats, snap0 serve.Stats) error {
	L := pr.layers
	n := len(w.plan[0])
	var hit, miss, wire float64
	var hits, misses int
	for idx := range reqStart {
		op := w.plan[idx/n][idx%n]
		hs, he := time.Duration(w.hStart[idx].Load()), time.Duration(w.hEnd[idx].Load())
		ri := tr.add("serve.request", idx, -1, w.epoch.Add(reqStart[idx]), w.epoch.Add(reqEnd[idx]))
		tr.add("serve.handler", idx, ri, w.epoch.Add(hs), w.epoch.Add(he))
		h := ms(he - hs)
		wire += ms(reqEnd[idx]-reqStart[idx]) - h
		if op.fresh {
			miss += h
			misses++
		} else {
			hit += h
			hits++
		}
	}
	if hits > 0 {
		L["serve.handler_hit_ms"] = hit / float64(hits)
	}
	if misses > 0 {
		L["serve.handler_miss_ms"] = miss / float64(misses)
	}
	L["serve.wire_ms"] = wire / float64(len(reqStart))

	cs, snap := w.srv.CacheStats(), w.srv.Snapshot()
	ratio := func(h, m uint64) float64 {
		if h+m == 0 {
			return 0
		}
		return float64(h) / float64(h+m)
	}
	L["anacache.verdict_hit_ratio"] = ratio(cs.VerdictHits-cache0.VerdictHits, cs.VerdictMisses-cache0.VerdictMisses)
	L["anacache.trace_hit_ratio"] = ratio(cs.TraceHits-cache0.TraceHits, cs.TraceMisses-cache0.TraceMisses)
	L["anacache.stores"] = float64(cs.Stores-cache0.Stores) / float64(pr.ops)
	L["serve.coalesced"] = float64(snap.Coalesced - snap0.Coalesced)
	L["serve.shed"] = float64(snap.Shed - snap0.Shed)
	L["serve.queue_high_water"] = float64(snap.QueueHighWater)

	cache, err := anacache.New("")
	if err != nil {
		return err
	}
	counts := map[string]float64{}
	for _, b := range w.bases {
		if _, _, err := layeredAnalyze(nil, -1, b.source, b.model, cache, counts); err != nil {
			return err
		}
	}
	counts = map[string]float64{}
	for _, idx := range order {
		op := w.plan[idx/n][idx%n]
		body, _, err := layeredAnalyze(tr, idx, w.text(op), w.bases[op.base].model, cache, counts)
		if err != nil {
			return err
		}
		if !bytes.Equal(body, w.bases[op.base].report) {
			oks[idx] = false
		}
	}
	for k, v := range counts {
		L[k] = v / float64(pr.ops)
	}
	return nil
}
