package tables

import (
	"fmt"
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
	BaseTput float64 // ops/sec uninstrumented
	InstTput float64 // ops/sec with DeepMC's runtime tracking
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

// fig12Row measures one bar: two uninstrumented runs, then two under
// the runtime tracker, keeping each side's best throughput to damp
// scheduler and allocator noise as benchmark harnesses do.
func fig12Row(app, wl string, run func(pmem.Tracker) (driver.Result, error)) (Fig12Row, error) {
	row := Fig12Row{App: app, Workload: wl}
	for _, tracked := range []bool{false, true} {
		for trial := 0; trial < 2; trial++ {
			var tr pmem.Tracker
			tput := &row.BaseTput
			if tracked {
				tr, tput = pmem.NewCheckerTracker(), &row.InstTput
			}
			r, err := run(tr)
			if err != nil {
				return row, err
			}
			*tput = max(*tput, r.Throughput())
		}
	}
	return row, nil
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
	fmt.Fprintf(&b, "%-10s %-12s %14s %14s %10s\n", "App", "Workload", "Base ops/s", "DeepMC ops/s", "Overhead")
	cur := ""
	for _, r := range rows {
		if r.App != cur {
			if cur != "" {
				b.WriteString("\n")
			}
			cur = r.App
		}
		fmt.Fprintf(&b, "%-10s %-12s %14.0f %14.0f %9.1f%%\n",
			r.App, r.Workload, r.BaseTput, r.InstTput, r.OverheadPct())
	}
	b.WriteString("\nPaper shape: 1.7-14.2% (Memcached), 2.5-16.1% (Redis), 3.12-15.7% (NStore); overhead grows with persistent write ratio.\n")
	return Result{Text: b.String(), OK: true}
}
