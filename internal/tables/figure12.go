package tables

import (
	"fmt"
	"slices"
	"strings"

	"deepmc/internal/apps/driver"
	"deepmc/internal/apps/memcache"
	"deepmc/internal/apps/nstore"
	"deepmc/internal/apps/redis"
	"deepmc/internal/nvm"
	"deepmc/internal/pmem"
	"deepmc/internal/pmem/mnemosyne"
	"deepmc/internal/pmem/pmdk"
	"deepmc/internal/workload"
)

// Fig12Row is one bar of Figure 12: one application x workload, with
// baseline and instrumented throughput.
type Fig12Row struct {
	App      string
	Workload string
	BaseTput float64 // median ops/sec uninstrumented
	InstTput float64 // median ops/sec with DeepMC's runtime tracking
	// MinPct and MaxPct bound the throughput loss of the single rounds,
	// each an untracked run and the tracked run after it.
	MinPct, MaxPct float64
}

// OverheadPct returns the throughput loss in percent.
func (r Fig12Row) OverheadPct() float64 {
	if r.BaseTput <= 0 {
		return 0
	}
	return 100 * (r.BaseTput - r.InstTput) / r.BaseTput
}

// Fig12Config scales the experiment (the paper runs 1M transactions; the
// default here keeps bench time reasonable while preserving the shape).
type Fig12Config struct {
	OpsPerClient int
	Clients      int
	Keyspace     uint64
}

// DefaultFig12Config mirrors Table 6's client counts at reduced op
// counts.
func DefaultFig12Config() Fig12Config {
	return Fig12Config{OpsPerClient: 8000, Clients: 4, Keyspace: 2048}
}

// Figure12Measure runs every application x workload with and without
// the runtime tracker.
func Figure12Measure(cfg Fig12Config) ([]Fig12Row, error) {
	var rows []Fig12Row
	add := func(app, wl string, run func(pmem.Tracker) (driver.Result, error)) error {
		row, err := fig12Row(app, wl, run)
		rows = append(rows, row)
		return err
	}
	// Memcached over Mnemosyne, memslap mixes.
	for _, mix := range workload.MemslapMixes() {
		if err := add("Memcached", mix.Name, func(tr pmem.Tracker) (driver.Result, error) { return runMemcache(cfg, mix, tr) }); err != nil {
			return nil, err
		}
	}
	// Redis over PMDK, redis-benchmark default suite.
	for _, cmd := range workload.RedisOps {
		if err := add("Redis", cmd, func(tr pmem.Tracker) (driver.Result, error) { return runRedis(cfg, cmd, tr) }); err != nil {
			return nil, err
		}
	}
	// NStore over raw NVM ops, YCSB A-F.
	for _, mix := range workload.YCSBMixes() {
		if err := add("NStore", mix.Name, func(tr pmem.Tracker) (driver.Result, error) { return runNStore(cfg, mix, tr) }); err != nil {
			return nil, err
		}
	}
	return rows, nil
}

// fig12Rounds is the number of rounds behind each bar.  Host noise
// drifts over seconds, so each tracked run is paired with the untracked
// run just before it, and each side keeps its median over the rounds.
const fig12Rounds = 5

// fig12Row measures one bar over fig12Rounds rounds, each an
// uninstrumented run followed by one under the runtime tracker.
func fig12Row(app, wl string, run func(pmem.Tracker) (driver.Result, error)) (Fig12Row, error) {
	row := Fig12Row{App: app, Workload: wl}
	var base, inst, pct []float64
	for round := 0; round < fig12Rounds; round++ {
		b, err := run(nil)
		if err != nil {
			return row, err
		}
		t, err := run(pmem.NewCheckerTracker())
		if err != nil {
			return row, err
		}
		r := Fig12Row{BaseTput: b.Throughput(), InstTput: t.Throughput()}
		base, inst, pct = append(base, r.BaseTput), append(inst, r.InstTput), append(pct, r.OverheadPct())
	}
	row.BaseTput, row.InstTput = median(base), median(inst)
	row.MinPct, row.MaxPct = slices.Min(pct), slices.Max(pct)
	return row, nil
}

// median returns the middle value of an odd-length sample.
func median(xs []float64) float64 {
	slices.Sort(xs)
	return xs[len(xs)/2]
}

func runMemcache(cfg Fig12Config, mix workload.Mix, tr pmem.Tracker) (driver.Result, error) {
	s, err := memcache.Open(memcache.Config{
		Buckets: 1 << 12,
		Region:  mnemosyne.Config{NVM: nvm.Config{Size: 256 << 20}, Tracker: tr},
	})
	if err != nil {
		return driver.Result{}, err
	}
	kv := driver.MemcacheKV{S: s}
	if err := driver.Preload(kv, cfg.Keyspace); err != nil {
		return driver.Result{}, err
	}
	return driver.Run(kv, mix, cfg.Clients, cfg.OpsPerClient, cfg.Keyspace)
}

func runRedis(cfg Fig12Config, cmd string, tr pmem.Tracker) (driver.Result, error) {
	db, err := redis.Open(redis.Config{
		Buckets: 1 << 12,
		Pool:    pmdk.Config{NVM: nvm.Config{Size: 512 << 20}, Tracker: tr},
	})
	if err != nil {
		return driver.Result{}, err
	}
	kv := driver.RedisKV{DB: db, Cmd: cmd}
	mix := workload.Mix{Name: cmd, Update: 100}
	return driver.Run(kv, mix, cfg.Clients, cfg.OpsPerClient, cfg.Keyspace)
}

func runNStore(cfg Fig12Config, mix workload.Mix, tr pmem.Tracker) (driver.Result, error) {
	e, err := nstore.Open(nstore.Config{
		NVM: nvm.Config{Size: 256 << 20}, Tracker: tr, Capacity: 1 << 17, LogBytes: 64 << 20,
	})
	if err != nil {
		return driver.Result{}, err
	}
	kv := driver.NStoreKV{E: e}
	if err := driver.Preload(kv, cfg.Keyspace); err != nil {
		return driver.Result{}, err
	}
	return driver.Run(kv, mix, cfg.Clients, cfg.OpsPerClient, cfg.Keyspace)
}

// figure12 renders the measurement at DefaultFig12Config.
func figure12() Result {
	rows, err := Figure12Measure(DefaultFig12Config())
	if err != nil {
		return fail("figure 12", err)
	}
	var b strings.Builder
	b.WriteString("Figure 12: throughput impact of DeepMC's dynamic analysis\n\n")
	fmt.Fprintf(&b, "Each row: medians of %d alternated untracked and tracked runs; overhead of the medians, [lowest, highest] round.\n\n", fig12Rounds)
	fmt.Fprintf(&b, "%-10s %-12s %14s %14s %10s  %s\n", "App", "Workload", "Base ops/s", "DeepMC ops/s", "Overhead", "Rounds")
	cur := ""
	for _, r := range rows {
		if r.App != cur {
			if cur != "" {
				b.WriteString("\n")
			}
			cur = r.App
		}
		fmt.Fprintf(&b, "%-10s %-12s %14.0f %14.0f %9.1f%%  [%.1f, %.1f]\n",
			r.App, r.Workload, r.BaseTput, r.InstTput, r.OverheadPct(), r.MinPct, r.MaxPct)
	}
	b.WriteString("\nPaper shape: 1.7-14.2% (Memcached), 2.5-16.1% (Redis), 3.12-15.7% (NStore); overhead grows with persistent write ratio.\n")
	return Result{Text: b.String(), OK: true}
}
