package tables

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"time"

	"deepmc/internal/anacache"
	"deepmc/internal/core"
	"deepmc/internal/fleet"
	"deepmc/internal/ir"
	"deepmc/internal/netfault"
)

// fleetGate is the CI gate for the sharded analysis fleet over both
// transports: the merged fleet output must be byte-identical to a
// single-node batch run at every shard count, through shard kills and
// seeded network faults, and no acknowledged job may be dropped.
//
// Every round runs the same jobs through a fresh fleet:
//
//	in-process shards=1       — degenerate fleet, the baseline sanity check
//	in-process shards=4, 8    — real sharding, work-stealing in play
//	in-process shards=4/8 + 6 kills — a killer cycles kill → restart
//	                            through the shards mid-run; lost executions
//	                            requeue, survivors steal the dead shard's
//	                            queue, breakers trip and re-close
//	http shards=1, 4, 8       — real `deepmc serve -shard` processes and a
//	                            real HTTP verdict tier; against the clean
//	                            in-process rounds these price the wire
//	http shards=4 + faults    — latency, slow bytes, mid-body resets and
//	                            blackholes on a seeded per-dial schedule
//	http shards=8 + faults + 2 kills — plus SIGKILLed shard processes
//	                            restarted at the same address
//	http replay shards=4 + faults — the same seed must draw the same
//	                            fault schedule (and the same bytes)
//
// Every round asserts zero per-job errors and Render() equal to the
// batch reference byte for byte.  Over HTTP a killed shard's
// half-written response is a free requeue, never a merged report: the
// transport verifies Content-Length and the body checksum.
func fleetGate() Result {
	jobs, err := fleetJobs()
	if err != nil {
		return fail("fleet gate", err)
	}
	ref, err := batchRender(jobs)
	if err != nil {
		return fail("fleet gate", err)
	}
	bin, cleanup, err := deepmcBinary()
	if err != nil {
		return fail("fleet gate", err)
	}
	defer cleanup()

	wire := httpShards(bin)
	rounds := []fleetRound{ // transport, shards, kills, faults, replay
		{inProcess, 1, 0, false, false}, {inProcess, 4, 0, false, false}, {inProcess, 8, 0, false, false},
		{inProcess, 4, 6, false, false}, {inProcess, 8, 6, false, false},
		{wire, 1, 0, false, false}, {wire, 4, 0, false, false}, {wire, 8, 0, false, false},
		{wire, 4, 0, true, false}, {wire, 8, 2, true, false}, {wire, 4, 0, true, true},
	}

	var b strings.Builder
	ok := true
	b.WriteString("Fleet gate\n")
	b.WriteString("----------\n")
	var rows []fleetRow
	clean := map[int]int64{}      // in-process clean-round ns by shards
	schedules := map[int]string{} // first fault schedule by shards
	var overhead []string
	for _, r := range rounds {
		row, sched, err := runFleetRound(r, jobs, ref)
		line := row.summary()
		switch {
		case err != nil:
			line, ok = "FAIL: "+err.Error(), false
		case r.replay && sched != schedules[r.shards]:
			line, ok = "FAIL: same seed drew a different fault schedule", false
		case r.replay:
			line += " (schedule replayed)"
		}
		if r.faults && !r.replay {
			schedules[r.shards] = sched
		}
		if err == nil && r.kills == 0 && !r.faults {
			if r.tr == inProcess {
				clean[r.shards] = row.Ns
			} else if base := clean[r.shards]; base > 0 {
				row.WireOverhead = float64(row.Ns) / float64(base)
				overhead = append(overhead, fmt.Sprintf("shards=%d %.2fx", r.shards, row.WireOverhead))
			}
		}
		fmt.Fprintf(&b, "  %s: %s\n", r, line)
		rows = append(rows, row)
	}
	fmt.Fprintf(&b, "  wire overhead, http / in-process clean rounds: %s\n", strings.Join(overhead, ", "))
	if ok {
		b.WriteString("fleet gate passed: fleet == batch byte-for-byte in-process and over HTTP at shards 1/4/8, through shard kills and seeded network chaos, schedule replayable, zero dropped jobs\n")
	} else {
		b.WriteString("fleet gate FAILED\n")
	}
	return Result{Text: b.String(), Bench: rows, OK: ok}
}

// fleetJobs is the gate's one job set, in wire form so both transports
// run it: the corpus programs by registered name plus 24 generated
// apps as printed PIR source, each Module parsed from those exact bytes
// so both sides of the wire analyze identical text.
func fleetJobs() ([]fleet.Job, error) {
	jobs, err := corpusJobs(core.Config{Workers: 1})
	if err != nil {
		return nil, err
	}
	for i := 0; i < 24; i++ {
		name := fmt.Sprintf("app_%02d", i)
		src := ir.Print(core.GenerateApp(core.AppSpec{Name: name, Funcs: 12 + i%9, CallDepth: 2, Seed: int64(4000 + i)}))
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

// fleetRound is one gate round.  A replay round must draw the fault
// schedule of the first faults round at its shard count.
type fleetRound struct {
	tr     *fleetTransport
	shards int
	kills  int
	faults bool
	replay bool
}

func (r fleetRound) String() string {
	s := r.tr.name
	if r.replay {
		s += " replay"
	}
	return fmt.Sprintf("%s shards=%d kills=%d faults=%v", s, r.shards, r.kills, r.faults)
}

// fleetTransport is what a round needs from one side of the process
// boundary: a fleet built for the round, with hooks that kill and
// restart one of its shards, and how long a killed shard stays down.
type fleetTransport struct {
	name  string
	down  time.Duration
	build func(r fleetRound) (*fleetRig, error)
}

// fleetRig is one round's fleet and its transport's hooks.
type fleetRig struct {
	f       *fleet.Fleet
	kill    func(shard int)
	restart func(shard int) error
	inj     *netfault.Injector // nil unless the round injects faults
	close   func()
}

// fleetRow is one BENCH_fleet_gate.json record.
type fleetRow struct {
	Transport string `json:"transport"`
	Shards    int    `json:"shards"`
	Kills     int    `json:"kills"` // performed by the killer
	Faults    bool   `json:"faults,omitempty"`
	Replay    bool   `json:"replay,omitempty"`
	Jobs      int    `json:"jobs"`
	Ns        int64  `json:"ns"`
	Identical bool   `json:"identical"`
	Errors    int    `json:"errors"`
	Dials     uint64 `json:"dials,omitempty"`
	FaultsHit string `json:"faults_hit,omitempty"`
	// WireOverhead is a clean HTTP round's ns over the clean in-process
	// round's at the same shard count.
	WireOverhead float64             `json:"wire_overhead,omitempty"`
	Stats        fleet.StatsSnapshot `json:"stats"`
}

func (row fleetRow) summary() string {
	s := fmt.Sprintf("ok: %d jobs in %v (kills=%d steals=%d requeues=%d retries=%d hedges=%d netRequeues=%d corrupt=%d throttled=%d",
		row.Jobs, time.Duration(row.Ns).Round(time.Millisecond), row.Kills, row.Stats.Steals, row.Stats.Requeues,
		row.Stats.Retries, row.Stats.Hedges, row.Stats.NetRequeues, row.Stats.Corrupt, row.Stats.Throttled)
	if row.Faults {
		s += fmt.Sprintf(" dials=%d faults=[%s]", row.Dials, row.FaultsHit)
	}
	return s + ")"
}

// runFleetRound runs the jobs through a freshly built fleet while a
// killer cycles kill → down → restart through the shards, one down at a
// time and always restarted so the fleet never loses every worker, then
// checks the merged output against the batch reference.  It returns the
// row and the injector's fault schedule, the replay artifact.
func runFleetRound(r fleetRound, jobs []fleet.Job, ref string) (fleetRow, string, error) {
	row := fleetRow{Transport: r.tr.name, Shards: r.shards, Faults: r.faults, Replay: r.replay, Jobs: len(jobs)}
	rig, err := r.tr.build(r)
	if err != nil {
		return row, "", err
	}
	defer rig.close()

	start := time.Now()
	done := make(chan *fleet.Result, 1)
	go func() { done <- rig.f.Run(context.Background(), jobs) }()

	rng := rand.New(rand.NewSource(int64(r.shards + r.kills)))
	var res *fleet.Result
	for res == nil && row.Kills < r.kills {
		select {
		case res = <-done:
			continue
		case <-time.After(r.tr.down):
		}
		s := rng.Intn(r.shards)
		rig.kill(s)
		row.Kills++
		time.Sleep(r.tr.down)
		if err := rig.restart(s); err != nil {
			return row, "", fmt.Errorf("restart shard %d: %w", s, err)
		}
	}
	if res == nil {
		select {
		case res = <-done:
		case <-time.After(5 * time.Minute):
			return row, "", errors.New("round wedged")
		}
	}
	row.Ns = time.Since(start).Nanoseconds()
	row.Stats = rig.f.StatsSnapshot()
	sched := ""
	if rig.inj != nil {
		row.Dials = rig.inj.Dials()
		row.FaultsHit = rig.inj.FiredString()
		sched = rig.inj.ScheduleString(64)
	}

	for _, e := range res.Errs {
		if e != nil {
			row.Errors++
		}
	}
	out := res.Render()
	row.Identical = out == ref
	switch {
	case row.Errors > 0:
		return row, sched, fmt.Errorf("%d job errors (first: %v)", row.Errors, res.Err())
	case !row.Identical:
		return row, sched, fmt.Errorf("output diverges from batch (%d vs %d bytes)", len(out), len(ref))
	}
	return row, sched, nil
}

// inProcess runs shards as goroutines over a fresh shared cache
// directory; a kill cancels the shard's context.
var inProcess = &fleetTransport{
	name: "in-process",
	down: 8 * time.Millisecond,
	build: func(r fleetRound) (*fleetRig, error) {
		dir, err := os.MkdirTemp("", "deepmc-fleet-gate-")
		if err != nil {
			return nil, err
		}
		f, err := fleet.New(fleet.Config{
			Shards:     r.shards,
			CacheDir:   dir,
			Seed:       int64(r.shards*100 + r.kills),
			ProbeEvery: 10 * time.Millisecond,
		})
		if err != nil {
			os.RemoveAll(dir)
			return nil, err
		}
		return &fleetRig{f: f, kill: f.KillShard, restart: f.RestartShard, close: func() {
			f.Close()
			os.RemoveAll(dir)
		}}, nil
	},
}

// httpShards runs shards as `deepmc serve -shard` processes of bin over
// a loopback HTTP verdict tier.  A kill is SIGKILL and a restart
// relaunches the process at the same address, so the fleet sees only
// wire failures and probe recoveries; it is never told a process died.
// Fault rounds put a seeded injector on every dial and redial per
// request so each request draws its own fault plan; clean rounds keep
// connections alive.
func httpShards(bin string) *fleetTransport {
	const seed = 41
	return &fleetTransport{name: "http", down: 100 * time.Millisecond, build: func(r fleetRound) (*fleetRig, error) {
		var undo []func()
		cleanup := func() {
			for i := len(undo) - 1; i >= 0; i-- {
				undo[i]()
			}
		}
		tierDir, err := os.MkdirTemp("", "deepmc-fleet-gate-tier-")
		if err != nil {
			return nil, err
		}
		undo = append(undo, func() { os.RemoveAll(tierDir) })
		tier, err := anacache.NewLazy(tierDir)
		if err != nil {
			cleanup()
			return nil, err
		}
		stopFlush := tier.FlushLoop(50 * time.Millisecond)
		undo = append(undo, func() { stopFlush() })
		tl, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			cleanup()
			return nil, err
		}
		tierSrv := &http.Server{Handler: anacache.BackingHandler(tier)}
		go tierSrv.Serve(tl)
		undo = append(undo, func() { tierSrv.Close() })
		tierURL := "http://" + tl.Addr().String()

		procs := make([]*shardProc, r.shards)
		undo = append(undo, func() {
			for _, p := range procs {
				if p != nil {
					p.kill()
				}
			}
		})
		for i := range procs {
			if procs[i], err = startShardProc(bin, tierURL, "127.0.0.1:0"); err != nil {
				cleanup()
				return nil, fmt.Errorf("start shard %d: %w", i, err)
			}
		}

		var inj *netfault.Injector
		reqTimeout := 20 * time.Second
		if r.faults {
			// Every enabled class on a modest per-dial rate; the 2s
			// request deadline turns a blackholed request into a quick
			// free requeue instead of a stalled worker.
			inj = netfault.New(netfault.Config{Classes: netfault.Classes(), Rate: 0.06, Seed: seed})
			reqTimeout = 2 * time.Second
		}
		f, err := fleet.New(fleet.Config{
			Shards:     r.shards,
			Seed:       seed,
			RetryBase:  10 * time.Millisecond,
			ProbeEvery: 25 * time.Millisecond,
			NewTransport: func(shard int, _ *anacache.Cache) (fleet.Transport, error) {
				opts := fleet.HTTPOptions{RequestTimeout: reqTimeout}
				if inj != nil {
					opts.Dial = inj.WrapDial(nil)
					opts.DisableKeepAlives = true
				}
				return fleet.NewHTTPTransport(procs[shard].url, opts), nil
			},
		})
		if err != nil {
			cleanup()
			return nil, err
		}
		undo = append(undo, func() { f.Close() })
		return &fleetRig{
			f:    f,
			kill: func(s int) { procs[s].kill() },
			restart: func(s int) error {
				p, err := startShardProc(bin, tierURL, procs[s].addr)
				if err != nil {
					return fmt.Errorf("at %s: %w", procs[s].addr, err)
				}
				procs[s] = p
				return nil
			},
			inj:   inj,
			close: cleanup,
		}, nil
	}}
}

// deepmcBinary builds the CLI the HTTP rounds spawn shard processes
// from into a temp dir; cleanup removes it.
func deepmcBinary() (string, func(), error) {
	dir, err := os.MkdirTemp("", "deepmc-fleet-gate-bin-")
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
