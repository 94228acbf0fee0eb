package tables

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"time"

	"deepmc/internal/anacache"
	"deepmc/internal/core"
	"deepmc/internal/corpus"
	"deepmc/internal/fleet"
	"deepmc/internal/ir"
	"deepmc/internal/netfault"
)

// NetFleetGate is the over-the-wire fleet gate: real shard *processes*
// (`deepmc serve -shard`), a real HTTP verdict tier, and a seeded
// network fault injector between them.  Each round asserts the same
// contract as the in-process fleet gate — merged output byte-identical
// to a single-node batch run, zero dropped jobs — but now the failure
// surface is the wire:
//
//	shards=1            — degenerate HTTP fleet, wire-framing sanity
//	shards=4 + faults   — latency, slow-bytes, mid-body resets and
//	                      blackholes on a seeded schedule; run TWICE
//	                      with the same seed to prove the fault
//	                      schedule (and the output) replays
//	shards=8 + faults   — plus SIGKILLed shard processes restarted at
//	                      the same address mid-run
//
// Partial or truncated responses are never trusted: the transport
// verifies Content-Length and the body checksum, so a killed shard's
// half-written response is a free requeue, not a merged report.
// BENCH_net_fleet.json records the rows.
func NetFleetGate() (string, bool) {
	var b strings.Builder
	ok := true
	b.WriteString("Net-fleet gate\n")
	b.WriteString("--------------\n")

	bin, cleanup, err := deepmcBinary()
	if err != nil {
		return fmt.Sprintf("net-fleet gate: %v\n", err), false
	}
	defer cleanup()

	jobs, err := netFleetJobs()
	if err != nil {
		return fmt.Sprintf("net-fleet gate: %v\n", err), false
	}
	ref, err := fleetBatchRef(jobs)
	if err != nil {
		return fmt.Sprintf("net-fleet gate: %v\n", err), false
	}

	type round struct {
		shards int
		faults bool
		kills  int
	}
	rounds := []round{{1, false, 0}, {4, true, 0}, {8, true, 2}}
	var rows []netFleetRow
	var replaySchedule string
	for _, r := range rounds {
		row, line, sched, roundOK := netFleetRound(bin, jobs, ref, r.shards, r.faults, r.kills, 41)
		fmt.Fprintf(&b, "  shards=%d faults=%v kills=%d: %s\n", r.shards, r.faults, r.kills, line)
		rows = append(rows, row)
		ok = ok && roundOK
		if r.shards == 4 && r.faults {
			replaySchedule = sched
		}
	}

	// Same-seed replay: the 4-shard fault round again, asserting both
	// the output bytes and the per-dial fault schedule are identical.
	row, line, sched, roundOK := netFleetRound(bin, jobs, ref, 4, true, 0, 41)
	row.Replay = true
	rows = append(rows, row)
	switch {
	case !roundOK:
		fmt.Fprintf(&b, "  replay shards=4 faults=true: %s\n", line)
		ok = false
	case sched != replaySchedule:
		b.WriteString("  replay shards=4 faults=true: FAIL: same seed drew a different fault schedule\n")
		ok = false
	default:
		fmt.Fprintf(&b, "  replay shards=4 faults=true: %s (schedule replayed)\n", line)
	}

	if bts, err := json.MarshalIndent(rows, "", "  "); err == nil {
		_ = os.WriteFile("BENCH_net_fleet.json", append(bts, '\n'), 0o644)
	}

	if ok {
		b.WriteString("net-fleet gate passed: fleet == batch byte-for-byte over HTTP at shards 1/4/8, through process kills and seeded network chaos, schedule replayable, zero dropped jobs\n")
	} else {
		b.WriteString("net-fleet gate FAILED\n")
	}
	return b.String(), ok
}

// netFleetRow is one BENCH_net_fleet.json record.
type netFleetRow struct {
	Shards    int                 `json:"shards"`
	Faults    bool                `json:"faults"`
	Kills     int                 `json:"kills"`
	Replay    bool                `json:"replay,omitempty"`
	Jobs      int                 `json:"jobs"`
	Ns        int64               `json:"ns"`
	Identical bool                `json:"identical"`
	Errors    int                 `json:"errors"`
	Dials     uint64              `json:"dials"`
	FaultsHit string              `json:"faults_hit,omitempty"`
	Stats     fleet.StatsSnapshot `json:"stats"`
}

// deepmcBinary resolves the CLI binary the gate spawns shard processes
// from: $DEEPMC_BIN if set (the Makefile pre-builds it), else a fresh
// `go build` into a temp dir.
func deepmcBinary() (string, func(), error) {
	if bin := os.Getenv("DEEPMC_BIN"); bin != "" {
		if _, err := os.Stat(bin); err != nil {
			return "", nil, fmt.Errorf("DEEPMC_BIN: %w", err)
		}
		return bin, func() {}, nil
	}
	dir, err := os.MkdirTemp("", "deepmc-net-fleet-bin-")
	if err != nil {
		return "", nil, err
	}
	bin := filepath.Join(dir, "deepmc")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/deepmc")
	if out, err := cmd.CombinedOutput(); err != nil {
		os.RemoveAll(dir)
		return "", nil, fmt.Errorf("go build ./cmd/deepmc: %v: %s", err, out)
	}
	return bin, func() { os.RemoveAll(dir) }, nil
}

// netFleetJobs is the gate workload in wire form: the corpus programs
// by registered name, generated apps as printed PIR source.  The local
// Module — the batch reference — is parsed from those exact bytes, so
// both sides of the wire analyze identical text.
func netFleetJobs() ([]fleet.Job, error) {
	var jobs []fleet.Job
	for _, p := range corpus.All() {
		m, err := p.Module()
		if err != nil {
			return nil, err
		}
		jobs = append(jobs, fleet.Job{
			Name: p.Name, Module: m, Corpus: p.Name,
			Config: core.Config{Model: p.Model.String(), Workers: 1},
		})
	}
	for i := 0; i < 12; i++ {
		name := fmt.Sprintf("app_%02d", i)
		src := ir.Print(core.GenerateApp(core.AppSpec{Name: name, Funcs: 12 + i%9, CallDepth: 2, Seed: int64(6000 + i)}))
		m, err := ir.Parse(src)
		if err != nil {
			return nil, fmt.Errorf("reparse %s: %w", name, err)
		}
		jobs = append(jobs, fleet.Job{
			Name: name, Module: m, Source: src,
			Config: core.Config{Model: "epoch", AllFunctions: true, Workers: 1},
		})
	}
	return jobs, nil
}

// shardProc is one `deepmc serve -shard` child process.
type shardProc struct {
	cmd  *exec.Cmd
	addr string // resolved host:port, reused on restart
	url  string
}

// startShardProc launches a shard daemon and waits for its
// SHARD_ADDR= announcement.  addr may be "127.0.0.1:0" (first launch)
// or a previously resolved address (restart after a kill).
func startShardProc(bin, tierURL, addr string) (*shardProc, error) {
	cmd := exec.Command(bin, "serve", "-shard", "-addr", addr, "-tier", tierURL, "-drain", "5s", "-jobs", "1")
	cmd.Stderr = io.Discard
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	got := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			if a, found := strings.CutPrefix(sc.Text(), "SHARD_ADDR="); found {
				got <- a
				break
			}
		}
		close(got)
		// Keep draining so the child never blocks on a full pipe.
		io.Copy(io.Discard, stdout)
	}()
	select {
	case a, ok := <-got:
		if !ok || a == "" {
			cmd.Process.Kill()
			cmd.Wait()
			return nil, fmt.Errorf("shard at %s exited before announcing its address", addr)
		}
		return &shardProc{cmd: cmd, addr: a, url: "http://" + a}, nil
	case <-time.After(15 * time.Second):
		cmd.Process.Kill()
		cmd.Wait()
		return nil, fmt.Errorf("shard at %s never announced its address", addr)
	}
}

// kill SIGKILLs the shard process — no drain, no goodbye, exactly the
// failure the wire protocol must absorb.
func (p *shardProc) kill() {
	if p.cmd.Process != nil {
		p.cmd.Process.Kill()
	}
	p.cmd.Wait()
}

// netFleetRound runs one HTTP fleet configuration against the batch
// reference.  Returns the bench row, a status line, the injector's
// fault-schedule string (the replay artifact), and pass/fail.
func netFleetRound(bin string, jobs []fleet.Job, ref string, shards int, faults bool, kills int, seed int64) (netFleetRow, string, string, bool) {
	row := netFleetRow{Shards: shards, Faults: faults, Kills: kills, Jobs: len(jobs)}
	fail := func(format string, args ...any) (netFleetRow, string, string, bool) {
		return row, fmt.Sprintf("FAIL: "+format, args...), "", false
	}

	tierDir, err := os.MkdirTemp("", "deepmc-net-fleet-tier-")
	if err != nil {
		return fail("%v", err)
	}
	defer os.RemoveAll(tierDir)
	tier, err := anacache.NewLazy(tierDir)
	if err != nil {
		return fail("%v", err)
	}
	defer tier.FlushLoop(50 * time.Millisecond)()
	tl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fail("%v", err)
	}
	tierSrv := &http.Server{Handler: anacache.BackingHandler(tier)}
	go tierSrv.Serve(tl)
	defer tierSrv.Close()
	tierURL := "http://" + tl.Addr().String()

	procs := make([]*shardProc, shards)
	for i := range procs {
		p, err := startShardProc(bin, tierURL, "127.0.0.1:0")
		if err != nil {
			for _, q := range procs[:i] {
				q.kill()
			}
			return fail("start shard %d: %v", i, err)
		}
		procs[i] = p
	}
	defer func() {
		for _, p := range procs {
			if p != nil {
				p.kill()
			}
		}
	}()

	var inj *netfault.Injector
	reqTimeout := 20 * time.Second
	if faults {
		// Every enabled class on a modest per-dial rate; the 2s request
		// deadline turns a blackholed request into a quick free requeue
		// instead of a stalled worker.
		inj = netfault.New(netfault.Config{Classes: netfault.Classes(), Rate: 0.06, Seed: seed})
		reqTimeout = 2 * time.Second
	}

	f, err := fleet.New(fleet.Config{
		Shards:     shards,
		Seed:       seed,
		RetryBase:  10 * time.Millisecond,
		ProbeEvery: 25 * time.Millisecond,
		NewTransport: func(shard int, _ *anacache.Cache) (fleet.Transport, error) {
			opts := fleet.HTTPOptions{RequestTimeout: reqTimeout}
			if inj != nil {
				opts.Dial = inj.WrapDial(nil)
				// Each request redials so each draws its own fault plan.
				opts.DisableKeepAlives = true
			}
			return fleet.NewHTTPTransport(procs[shard].url, opts), nil
		},
	})
	if err != nil {
		return fail("%v", err)
	}
	defer f.Close()

	start := time.Now()
	done := make(chan *fleet.Result, 1)
	go func() { done <- f.Run(context.Background(), jobs) }()

	// The killer SIGKILLs shard processes mid-run and restarts them at
	// the same address — the fleet sees only wire failures and probe
	// recoveries; it is never told a process died.
	performed := 0
	var res *fleet.Result
killer:
	for performed < kills {
		select {
		case res = <-done:
			break killer
		case <-time.After(150 * time.Millisecond):
		}
		victim := performed % shards
		procs[victim].kill()
		time.Sleep(100 * time.Millisecond)
		p, err := startShardProc(bin, tierURL, procs[victim].addr)
		if err != nil {
			return fail("restart shard %d at %s: %v", victim, procs[victim].addr, err)
		}
		procs[victim] = p
		performed++
	}
	if res == nil {
		select {
		case res = <-done:
		case <-time.After(5 * time.Minute):
			return fail("round wedged")
		}
	}
	row.Ns = time.Since(start).Nanoseconds()
	row.Stats = f.StatsSnapshot()
	if inj != nil {
		row.Dials = inj.Dials()
		row.FaultsHit = inj.FiredString()
	}

	for _, e := range res.Errs {
		if e != nil {
			row.Errors++
		}
	}
	row.Identical = res.Render() == ref
	sched := ""
	if inj != nil {
		sched = inj.ScheduleString(64)
	}
	switch {
	case row.Errors > 0:
		return row, fmt.Sprintf("FAIL: %d job errors (first: %v)", row.Errors, res.Err()), sched, false
	case !row.Identical:
		return row, fmt.Sprintf("FAIL: output diverges from batch (%d vs %d bytes)", len(res.Render()), len(ref)), sched, false
	}
	line := fmt.Sprintf("ok: %d jobs in %v (dials=%d faults=[%s] netRequeues=%d corrupt=%d throttled=%d retries=%d steals=%d)",
		len(jobs), time.Since(start).Round(time.Millisecond),
		row.Dials, row.FaultsHit,
		row.Stats.NetRequeues, row.Stats.Corrupt, row.Stats.Throttled, row.Stats.Retries, row.Stats.Steals)
	return row, line, sched, true
}

// fleetHTTPBenchRow is one BENCH_fleet_http.json record: the same
// workload through in-process transports and through real shard
// processes over loopback HTTP.
type fleetHTTPBenchRow struct {
	Shards      int   `json:"shards"`
	Jobs        int   `json:"jobs"`
	NsInProcess int64 `json:"ns_inprocess"`
	NsHTTP      int64 `json:"ns_http"`
	Identical   bool  `json:"identical"`
}

// FleetHTTPBench measures wire overhead: fleet==batch holds either
// way, so the only difference the transport is allowed to make is
// time.  Writes BENCH_fleet_http.json.
func FleetHTTPBench() (string, bool) {
	var b strings.Builder
	ok := true
	b.WriteString("Fleet HTTP overhead\n")
	b.WriteString("-------------------\n")

	bin, cleanup, err := deepmcBinary()
	if err != nil {
		return fmt.Sprintf("fleet-http bench: %v\n", err), false
	}
	defer cleanup()
	jobs, err := netFleetJobs()
	if err != nil {
		return fmt.Sprintf("fleet-http bench: %v\n", err), false
	}
	ref, err := fleetBatchRef(jobs)
	if err != nil {
		return fmt.Sprintf("fleet-http bench: %v\n", err), false
	}

	var rows []fleetHTTPBenchRow
	for _, shards := range []int{1, 4, 8} {
		row := fleetHTTPBenchRow{Shards: shards, Jobs: len(jobs)}

		inDir, err := os.MkdirTemp("", "deepmc-fleet-http-")
		if err != nil {
			return fmt.Sprintf("fleet-http bench: %v\n", err), false
		}
		f, err := fleet.New(fleet.Config{Shards: shards, CacheDir: inDir, Seed: int64(shards)})
		if err != nil {
			os.RemoveAll(inDir)
			return fmt.Sprintf("fleet-http bench: %v\n", err), false
		}
		start := time.Now()
		resIn := f.Run(context.Background(), jobs)
		row.NsInProcess = time.Since(start).Nanoseconds()
		f.Close()
		os.RemoveAll(inDir)

		wireRow, line, _, wireOK := netFleetRound(bin, jobs, ref, shards, false, 0, int64(shards))
		row.NsHTTP = wireRow.Ns
		row.Identical = wireOK && resIn.Err() == nil && resIn.Render() == ref
		if !row.Identical {
			fmt.Fprintf(&b, "  shards=%d: FAIL: %s\n", shards, line)
			ok = false
		} else {
			fmt.Fprintf(&b, "  shards=%d: in-process %v, http %v (%.2fx)\n", shards,
				time.Duration(row.NsInProcess).Round(time.Millisecond),
				time.Duration(row.NsHTTP).Round(time.Millisecond),
				float64(row.NsHTTP)/float64(row.NsInProcess))
		}
		rows = append(rows, row)
	}

	if bts, err := json.MarshalIndent(rows, "", "  "); err == nil {
		_ = os.WriteFile("BENCH_fleet_http.json", append(bts, '\n'), 0o644)
	}
	if ok {
		b.WriteString("fleet-http bench: identical output both sides of the wire at shards 1/4/8\n")
	}
	return b.String(), ok
}
