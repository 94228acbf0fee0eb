package tables

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"deepmc/internal/faultinj"
	"deepmc/internal/pmem"
	"deepmc/internal/soak"
	"deepmc/internal/workload"
)

// soakClientRow is one client count's tracked-vs-untracked throughput.
type soakClientRow struct {
	Clients      int     `json:"clients"`
	UntrackedOps float64 `json:"untracked_ops_per_sec"`
	TrackedOps   float64 `json:"tracked_ops_per_sec"`
	Overhead     float64 `json:"overhead_ratio"` // untracked / tracked
}

// soakAuditRow is one crash+recover audit configuration's outcome.
type soakAuditRow struct {
	App       string `json:"app"`
	Faults    string `json:"faults"`
	Buggy     bool   `json:"buggy"`
	Audited   int    `json:"audited_keys"`
	Witnesses int    `json:"witnesses"`
}

// soakBenchResult is the soak entries' bench schema.
type soakBenchResult struct {
	App          string          `json:"app"`
	Mix          string          `json:"mix"`
	Short        bool            `json:"short"`
	Trials       int             `json:"trials"`
	Rows         []soakClientRow `json:"throughput"`
	Sharded8     float64         `json:"sharded_checker_events_8c"`
	Global8      float64         `json:"global_mutex_checker_events_8c"`
	ShardSpeedup float64         `json:"shard_speedup"` // median of paired-trial ratios
	Audits       []soakAuditRow  `json:"audits"`
	Passed       bool            `json:"passed"`
}

// soakPerfCfg builds the write-heavy overhead-lane config: every op is
// a tracked durable transaction, so shadow-segment lookups dominate.
func soakPerfCfg(clients, totalOps int) soak.Config {
	return soak.Config{
		App: "memcache", Clients: clients, Partitions: 4,
		Keys: 512, OpsPerClient: totalOps / clients, Phases: 1,
		Mix:  workload.Mix{Name: "100u", Update: 100},
		Seed: 7,
	}
}

// bestThroughput runs cfg trials times and keeps the best op/s (the
// usual best-of timing discipline; the soak clock excludes crash and
// audit windows).
func bestThroughput(cfg soak.Config, trials int) (float64, error) {
	best := 0.0
	for i := 0; i < trials; i++ {
		res, err := soak.Run(cfg)
		if err != nil {
			return 0, err
		}
		if tp := res.Throughput(); tp > best {
			best = tp
		}
	}
	return best, nil
}

// soakGate drives the heavy-traffic soak engine and gates three
// properties: (1) tracked-vs-untracked throughput is recorded at two
// client counts, (2) the sharded checker beats the pre-shard
// global-mutex build at 8 clients on the same workload, and (3) the
// mid-workload crash+recover audit is clean for the fixed apps under
// every fault class while the planted-bug apps produce witnessed
// inconsistencies.  The rows are the entry's bench output.
func soakGate(short bool) Result {
	totalOps := 48000
	trials := 5
	auditOps := 150
	if short {
		totalOps = 16000
		trials = 3
		auditOps = 100
	}

	res := soakBenchResult{App: "memcache", Mix: "100u", Short: short, Trials: trials, Passed: true}
	var b strings.Builder
	b.WriteString("Soak gate: heavy traffic, crash+recover audits, sharded checker\n")
	b.WriteString("---------------------------------------------------------------\n")
	failf := func(format string, args ...any) {
		res.Passed = false
		fmt.Fprintf(&b, "  FAIL: "+format+"\n", args...)
	}

	// Lane 1: tracked vs untracked throughput at two client counts.
	for _, clients := range []int{2, 8} {
		cfg := soakPerfCfg(clients, totalOps)
		untracked, err := bestThroughput(cfg, trials)
		if err != nil {
			return fail("soak gate", err)
		}
		cfg.Tracked = true
		tracked, err := bestThroughput(cfg, trials)
		if err != nil {
			return fail("soak gate", err)
		}
		row := soakClientRow{Clients: clients, UntrackedOps: untracked, TrackedOps: tracked}
		if tracked > 0 {
			row.Overhead = untracked / tracked
		}
		res.Rows = append(res.Rows, row)
		fmt.Fprintf(&b, "  %d clients: untracked %9.0f op/s, tracked %9.0f op/s, overhead %.2fx\n",
			clients, untracked, tracked, row.Overhead)
		if tracked <= 0 || untracked <= 0 {
			failf("%d clients: throughput lane produced no ops", clients)
		}
	}

	// Lane 2: sharded vs pre-shard (single global mutex) checker at 8
	// clients.  End-to-end soak ops/s dilutes the checker to a few
	// percent of each operation — below run-to-run noise — so this
	// lane measures the checker itself on the soak's real load: it
	// records the full tracker call stream of an 8-client redis soak
	// (pmdk's 64-byte values make dense same-segment runs, the case
	// the per-strand segment cache serves), then replays the streams
	// (one goroutine per client thread) against a fresh checker of
	// each build and times checker events per second.  Trials are
	// paired (sharded, global, sharded, ...) and the gate is the
	// median of per-pair ratios, so GC and scheduler drift hit both
	// builds alike.
	cfg := soakPerfCfg(8, totalOps)
	cfg.App = "redis"
	streams, err := soak.TraceCheckerEvents(cfg)
	if err != nil {
		return fail("soak gate", err)
	}
	events := 0
	for _, s := range streams {
		events += len(s.Events)
	}
	const replayRounds = 4 // widens each timed window past timer/scheduler jitter
	replay := func(stripes int) float64 {
		runtime.GC()
		start := time.Now()
		for r := 0; r < replayRounds; r++ {
			ct := pmem.NewCheckerTrackerStripes(stripes)
			if stripes == 0 {
				ct = pmem.NewCheckerTracker()
			}
			var wg sync.WaitGroup
			for _, s := range streams {
				wg.Add(1)
				go func(s soak.TraceStream) {
					defer wg.Done()
					for _, ev := range s.Events {
						switch ev.Kind {
						case soak.TraceWrite:
							ct.Write(s.Thread, ev.Addr, "soak")
						case soak.TraceRead:
							ct.Read(s.Thread, ev.Addr, "soak")
						case soak.TraceFence:
							ct.Fence(s.Thread)
						case soak.TraceAcquire:
							ct.Acquire(s.Thread, ev.Lock)
						case soak.TraceRelease:
							ct.Release(s.Thread, ev.Lock)
						}
					}
				}(s)
			}
			wg.Wait()
		}
		return float64(events*replayRounds) / time.Since(start).Seconds()
	}
	var sharded, global float64
	var ratios []float64
	for i := 0; i < trials+3; i++ {
		s, g := replay(0), replay(1)
		if s > sharded {
			sharded = s
		}
		if g > global {
			global = g
		}
		if g > 0 {
			ratios = append(ratios, s/g)
		}
	}
	sort.Float64s(ratios)
	res.Sharded8, res.Global8 = sharded, global
	res.ShardSpeedup = ratios[len(ratios)/2]
	fmt.Fprintf(&b, "  checker on 8-client redis stream (%d events): sharded %9.0f ev/s vs global-mutex %9.0f ev/s (median ratio %.3fx)\n",
		events, sharded, global, res.ShardSpeedup)
	if res.ShardSpeedup <= 1 {
		failf("sharded checker did not beat the global-mutex build (median ratio %.3fx)", res.ShardSpeedup)
	}

	// Lane 3: the crash+recover audit matrix.  Fixed apps must audit
	// clean under every fault class; planted-bug apps must witness.
	schedules := []string{"none"}
	for _, cl := range faultinj.AllClasses() {
		schedules = append(schedules, cl.String())
	}
	auditCfg := func(app string) soak.Config {
		return soak.Config{
			App: app, Clients: 4, Partitions: 2,
			Keys: 128, OpsPerClient: auditOps, Phases: 2,
			FaultRate: 0.2, Seed: 11,
		}
	}
	for _, app := range []string{"memcache", "redis", "nstore"} {
		for _, sched := range schedules {
			cfg := auditCfg(app)
			cfg.Faults, _ = faultinj.ParseClasses(sched) // "none" parses to no classes
			run, err := soak.Run(cfg)
			if err != nil {
				return fail("soak gate: "+app+"/"+sched, err)
			}
			audited := 0
			for _, ph := range run.Phases {
				audited += ph.Audited
			}
			res.Audits = append(res.Audits, soakAuditRow{
				App: app, Faults: sched, Audited: audited, Witnesses: run.TotalWitnesses,
			})
			if run.TotalWitnesses != 0 {
				failf("%s under %s faults: fixed app produced %d witnesses", app, sched, run.TotalWitnesses)
			}
		}
	}
	for _, app := range []string{"memcache", "nstore"} {
		cfg := auditCfg(app)
		cfg.Buggy = true
		cfg.Faults = faultinj.AllClasses()
		run, err := soak.Run(cfg)
		if err != nil {
			return fail("soak gate: "+app+" buggy", err)
		}
		audited := 0
		for _, ph := range run.Phases {
			audited += ph.Audited
		}
		res.Audits = append(res.Audits, soakAuditRow{
			App: app, Faults: "all", Buggy: true, Audited: audited, Witnesses: run.TotalWitnesses,
		})
		if run.TotalWitnesses == 0 {
			failf("%s planted bug produced no witnesses", app)
		}
	}
	clean, witnessed := 0, 0
	for _, a := range res.Audits {
		if a.Buggy {
			witnessed += a.Witnesses
		} else if a.Witnesses == 0 {
			clean++
		}
	}
	fmt.Fprintf(&b, "  audits: %d fixed app/fault configs clean, %d witnesses across planted-bug apps\n",
		clean, witnessed)

	if res.Passed {
		b.WriteString("soak gate passed\n")
	} else {
		b.WriteString("soak gate FAILED\n")
	}
	return Result{Text: b.String(), Bench: res, OK: res.Passed}
}
