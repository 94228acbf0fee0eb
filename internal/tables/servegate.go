package tables

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"deepmc/internal/core"
	"deepmc/internal/corpus"
	"deepmc/internal/report"
	"deepmc/internal/serve"
)

// serveGate is the CI gate for the analysis daemon: a chaos/soak run
// that asserts the serve path keeps every hard promise the batch path
// makes, under concurrency, graceful restarts, injected pass panics and
// overload.
//
//  1. Restart soak: across several graceful restarts with concurrent
//     clients hammering the corpus endpoints over one shared disk cache,
//     zero admitted requests are dropped — every response is a 200 whose
//     body is byte-identical to the batch pipeline's report, or a clean
//     rejection (429 shed / 503 drain).  At least one request in flight
//     when the drain starts must still be delivered.
//  2. Breaker: a pass wired to panic trips its circuit breaker after the
//     configured threshold, degrades to attributed partial reports
//     instead of 500s, and recovers through a half-open probe after the
//     cooldown.
//  3. Shedding: with one analysis slot and a one-deep queue, an overload
//     burst is shed with 429 + Retry-After and the queue bound holds.
func serveGate() Result {
	var b strings.Builder
	ok := true
	b.WriteString("Serve daemon gate\n")
	b.WriteString("-----------------\n")

	// Batch-mode reference bytes, one per corpus target.  The serve path
	// must reproduce these exactly — cold, warm, and across restarts.
	jobs, err := corpusJobs(core.Config{})
	if err != nil {
		return fail("serve gate", err)
	}
	refs := make(map[string][]byte)
	for _, j := range jobs {
		rep, err := core.Analyze(j.Module, j.Config)
		if err != nil {
			return fail("serve gate", err)
		}
		refs[j.Name], err = rep.JSON()
		if err != nil {
			return fail("serve gate", err)
		}
	}

	dir, err := os.MkdirTemp("", "deepmc-serve-gate-")
	if err != nil {
		return fail("serve gate", err)
	}
	defer os.RemoveAll(dir)

	const rounds = 3
	for round := 0; round < rounds; round++ {
		line, roundOK := soakRound(dir, refs)
		fmt.Fprintf(&b, "  restart %d: %s\n", round+1, line)
		ok = ok && roundOK
	}

	line, bOK := breakerScenario()
	fmt.Fprintf(&b, "  breaker:   %s\n", line)
	ok = ok && bOK

	line, sOK := shedScenario()
	fmt.Fprintf(&b, "  shedding:  %s\n", line)
	ok = ok && sOK

	if ok {
		b.WriteString("serve gate passed: zero dropped requests across graceful restarts, serve == batch byte-for-byte, breaker trips and recovers, overload sheds cleanly\n")
	} else {
		b.WriteString("serve gate FAILED\n")
	}
	return Result{Text: b.String(), OK: ok}
}

// startServer builds a daemon from cfg and serves it on a loopback
// port, returning its base URL.
func startServer(cfg serve.Config) (*serve.Server, string, error) {
	s, err := serve.NewServer(cfg)
	if err != nil {
		return nil, "", err
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	go s.Serve(l)
	return s, "http://" + l.Addr().String(), nil
}

// oneStore is module <name><i>: a single persistent store at line 4
// that is never flushed, so DMC-S01 reports it.
func oneStore(name string, i int) string {
	return fmt.Sprintf("module %s%d\ntype t struct {\n\ta: int\n}\nfunc main() {\n\t%%p = palloc t\n\tstore %%p.a, %d @4\n\tret\n}\n", name, i, i)
}

// soakRound runs one daemon lifetime: concurrent clients cycle through
// the corpus targets over the shared cache dir until a mid-traffic
// graceful drain, and every outcome is audited.
func soakRound(cacheDir string, refs map[string][]byte) (string, bool) {
	s, base, err := startServer(serve.Config{
		CacheDir:     cacheDir,
		QueueDepth:   64,
		DrainTimeout: 10 * time.Second,
		// The first request of the round stalls long enough to still be
		// in flight when the drain starts: the zero-drop assertion gets
		// a guaranteed witness.
		Chaos: serve.Chaos{StallFirst: 1, Stall: 250 * time.Millisecond},
	})
	if err != nil {
		return fmt.Sprintf("FAIL: %v", err), false
	}

	names := make([]string, 0, len(refs))
	for _, p := range corpus.All() {
		names = append(names, p.Name)
	}

	var (
		drainStart   atomic.Int64 // unix nanos; 0 = not draining yet
		completed    atomic.Int64
		rejected     atomic.Int64
		afterDrain   atomic.Int64 // 200s delivered after the drain began
		failures     atomic.Int64
		failMsg      sync.Map
		client       = &http.Client{Timeout: 15 * time.Second}
		wg           sync.WaitGroup
		clientCount  = 6
		perClientCap = 50
	)
	fail := func(msg string) {
		failures.Add(1)
		failMsg.LoadOrStore("msg", msg)
	}
	for c := 0; c < clientCount; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClientCap; i++ {
				name := names[(c+i)%len(names)]
				body, err := json.Marshal(serve.Request{Corpus: name})
				if err != nil {
					fail(err.Error())
					return
				}
				resp, err := client.Post(base+"/analyze", "application/json", bytes.NewReader(body))
				if err != nil {
					// Transport errors are legal only once the listener
					// is going away; before that, a lost request is a
					// dropped request.
					if drainStart.Load() == 0 {
						fail("transport error before drain: " + err.Error())
					}
					return
				}
				got, rerr := io.ReadAll(resp.Body)
				resp.Body.Close()
				switch resp.StatusCode {
				case http.StatusOK:
					if rerr != nil {
						fail("truncated 200 body: " + rerr.Error())
						return
					}
					if !bytes.Equal(got, refs[name]) {
						fail(name + ": serve body diverged from batch report")
						return
					}
					completed.Add(1)
					if t := drainStart.Load(); t != 0 {
						afterDrain.Add(1)
					}
				case http.StatusTooManyRequests:
					rejected.Add(1)
				case http.StatusServiceUnavailable:
					rejected.Add(1)
					if drainStart.Load() != 0 {
						return // draining: this client is done
					}
				default:
					fail(fmt.Sprintf("%s: unexpected status %d", name, resp.StatusCode))
					return
				}
			}
		}(c)
	}

	// Let traffic build, then drain mid-flight.
	time.Sleep(100 * time.Millisecond)
	drainStart.Store(time.Now().UnixNano())
	if err := s.Close(); err != nil {
		fail("graceful shutdown: " + err.Error())
	}
	wg.Wait()

	if completed.Load() == 0 {
		fail("no requests completed")
	}
	if afterDrain.Load() == 0 {
		fail("no in-flight request was delivered across the drain")
	}
	if entries, err := os.ReadDir(cacheDir); err != nil || len(entries) == 0 {
		fail("drain did not flush the disk cache tier")
	}
	if failures.Load() > 0 {
		msg, _ := failMsg.Load("msg")
		return fmt.Sprintf("FAIL: %v (completed %d, rejected %d)", msg, completed.Load(), rejected.Load()), false
	}
	return fmt.Sprintf("ok: %d byte-identical, %d cleanly rejected, %d delivered across drain",
		completed.Load(), rejected.Load(), afterDrain.Load()), true
}

// breakerScenario drives the circuit breaker through trip and recovery
// with failpoint-injected pass panics.
func breakerScenario() (string, bool) {
	const threshold = 3
	s, base, err := startServer(serve.Config{
		BreakerThreshold: threshold,
		BreakerCooldown:  100 * time.Millisecond,
		Chaos:            serve.Chaos{FailPass: map[string]int{report.CodeUnflushedWrite: threshold}},
	})
	if err != nil {
		return fmt.Sprintf("FAIL: %v", err), false
	}
	defer s.Close()

	postSrc := func(i int) (*report.Report, error) {
		body, _ := json.Marshal(serve.Request{Source: oneStore("g", i)})
		resp, err := http.Post(base+"/analyze", "application/json", bytes.NewReader(body))
		if err != nil {
			return nil, err
		}
		defer resp.Body.Close()
		raw, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			return nil, fmt.Errorf("status %d: %s", resp.StatusCode, raw)
		}
		return report.ParseJSON(raw)
	}

	// Trip: each injected panic degrades to an attributed partial
	// report (never a 500) and counts toward the threshold.
	for i := 0; i < threshold; i++ {
		rep, err := postSrc(i)
		if err != nil {
			return fmt.Sprintf("FAIL: failing request %d: %v", i, err), false
		}
		if !hasSkipStage(rep, report.CodeUnflushedWrite) {
			return fmt.Sprintf("FAIL: failing request %d lacks pass-attributed skip", i), false
		}
	}
	if st := s.Snapshot().Breakers[report.CodeUnflushedWrite]; st.State != "open" {
		return fmt.Sprintf("FAIL: breaker %s after %d failures, want open", st.State, threshold), false
	}
	// Open: the pass is skipped outright.
	rep, err := postSrc(100)
	if err != nil {
		return fmt.Sprintf("FAIL: open-state request: %v", err), false
	}
	if !hasSkipStage(rep, report.CodeUnflushedWrite) {
		return "FAIL: open-state report lacks breaker skip", false
	}
	// Recover: past the cooldown the half-open probe succeeds (the
	// failpoints are spent), closing the breaker and restoring the
	// pass's findings.
	time.Sleep(200 * time.Millisecond)
	rep, err = postSrc(200)
	if err != nil {
		return fmt.Sprintf("FAIL: probe request: %v", err), false
	}
	if rep.Partial() {
		return "FAIL: post-recovery report still partial", false
	}
	found := false
	for _, w := range rep.Warnings {
		if w.EffectiveCode() == report.CodeUnflushedWrite {
			found = true
		}
	}
	if !found {
		return "FAIL: recovered pass did not report its warning", false
	}
	if st := s.Snapshot().Breakers[report.CodeUnflushedWrite]; st.State != "closed" {
		return fmt.Sprintf("FAIL: breaker %s after probe, want closed", st.State), false
	}
	return fmt.Sprintf("ok: tripped after %d injected panics, degraded while open, recovered via half-open probe", threshold), true
}

// shedScenario overloads a deliberately tiny daemon and checks the
// admission bound: overflow is shed with 429 + Retry-After, everything
// else completes, and nothing hits a 5xx.
func shedScenario() (string, bool) {
	s, base, err := startServer(serve.Config{
		MaxInFlight:    1,
		QueueDepth:     1,
		RequestTimeout: 10 * time.Second,
		Chaos:          serve.Chaos{StallFirst: 24, Stall: 200 * time.Millisecond},
	})
	if err != nil {
		return fmt.Sprintf("FAIL: %v", err), false
	}
	defer s.Close()

	const n = 12
	var completed, shed, other atomic.Int64
	var noRetryAfter atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body, _ := json.Marshal(serve.Request{Source: oneStore("s", i)})
			resp, err := http.Post(base+"/analyze", "application/json", bytes.NewReader(body))
			if err != nil {
				other.Add(1)
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			switch resp.StatusCode {
			case http.StatusOK:
				completed.Add(1)
			case http.StatusTooManyRequests:
				shed.Add(1)
				if resp.Header.Get("Retry-After") == "" {
					noRetryAfter.Add(1)
				}
			default:
				other.Add(1)
			}
		}(i)
	}
	wg.Wait()

	st := s.Snapshot()
	switch {
	case other.Load() > 0:
		return fmt.Sprintf("FAIL: %d requests neither completed nor shed cleanly", other.Load()), false
	case shed.Load() == 0:
		return "FAIL: overload burst was not shed", false
	case completed.Load() == 0:
		return "FAIL: no requests completed under overload", false
	case noRetryAfter.Load() > 0:
		return fmt.Sprintf("FAIL: %d shed responses lacked Retry-After", noRetryAfter.Load()), false
	case st.QueueHighWater > 1:
		return fmt.Sprintf("FAIL: queue high water %d exceeded depth 1", st.QueueHighWater), false
	}
	return fmt.Sprintf("ok: %d/%d shed with Retry-After, %d completed, queue bound held",
		shed.Load(), n, completed.Load()), true
}

// hasSkipStage reports whether rep carries a skip attributed to stage.
func hasSkipStage(rep *report.Report, stage string) bool {
	for _, sk := range rep.Skipped {
		if sk.Stage == stage {
			return true
		}
	}
	return false
}
