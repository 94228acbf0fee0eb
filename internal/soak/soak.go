// Package soak drives the instrumented applications at production
// shape — partitioned stores, concurrent zipfian/YCSB client mixes,
// multi-phase runs — and, between phases, crashes every partition,
// runs the app's recovery pass, and audits the recovered image against
// the acknowledged-write oracle: every write the store acked must be
// durable (or a planted bug must be witnessed as a word-level diff).
//
// The audit is exact because writes are ownership-partitioned: client
// c only ever writes keys congruent to c modulo the client count
// (updates are remapped into the owned residue class, inserts stride
// by it), so the last acknowledged stamp per key is well defined with
// no cross-client ack/apply ambiguity.  Crashes happen at phase
// barriers with every client parked (quiesce-crash): no operation is
// in flight, so Go-level volatile structures stay coherent with the
// rolled-back pools and recovery sees exactly what a post-restart
// process would.  Reads roam the whole grown key space and are not
// audited — they exist to shape the tracked hot path.
package soak

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"deepmc/internal/crashsim"
	"deepmc/internal/dynamic"
	"deepmc/internal/faultinj"
	"deepmc/internal/pmcontract"
	"deepmc/internal/pmem"
	"deepmc/internal/workload"
)

// Config shapes one soak run.
type Config struct {
	// App is the store under soak: memcache, redis, or nstore.
	App string
	// Clients is the concurrent client count (default 4).
	Clients int
	// Partitions shards the store into independent pools (default 2).
	Partitions int
	// Keys is the preloaded key-space size (default 1024).
	Keys uint64
	// OpsPerClient is the operation count per client per phase
	// (default 500).
	OpsPerClient int
	// Phases is the number of traffic→crash→recover→audit cycles
	// (default 2).
	Phases int
	// Mix is the operation mix (default: YCSB-A shape).
	Mix workload.Mix
	// Faults selects the injected fault classes (empty = none) at
	// FaultRate, seeded per partition from Seed.
	Faults    []faultinj.Class
	FaultRate float64
	// Seed drives workload generation and fault schedules.
	Seed int64
	// Tracked attaches the dynamic checker to every partition (the
	// overhead lane).
	Tracked bool
	// Buggy enables the app's planted crash-consistency bug
	// (memcache: BuggyNoCommitFence, nstore: BuggyNoApplyPersist).
	Buggy bool
	// PModel selects the hardware persistency contract every partition
	// pool simulates ("" or "x86"; "cxl" adds a whole-heap persistence
	// domain).  Under a domain, stores are durable at store time, so
	// the planted flush/fence bugs are healed by the hardware and a
	// Buggy run legitimately audits clean.
	PModel string
}

func (c *Config) defaults() error {
	if c.App == "" {
		c.App = "memcache"
	}
	if c.Clients <= 0 {
		c.Clients = 4
	}
	if c.Partitions <= 0 {
		c.Partitions = 2
	}
	if c.Keys == 0 {
		c.Keys = 1024
	}
	if c.OpsPerClient <= 0 {
		c.OpsPerClient = 500
	}
	if c.Phases <= 0 {
		c.Phases = 2
	}
	if c.Mix.Name == "" && c.Mix.Read+c.Mix.Update+c.Mix.Insert+c.Mix.RMW+c.Mix.Scan == 0 {
		c.Mix = workload.Mix{Name: "soak-default", Read: 50, Update: 40, Insert: 5, RMW: 5}
	}
	if err := c.Mix.Validate(); err != nil {
		return err
	}
	if c.Buggy && c.App == "redis" {
		return fmt.Errorf("soak: no planted bug is wired for app redis (use memcache or nstore)")
	}
	if _, err := pmcontract.ParseContract(c.PModel); err != nil {
		return fmt.Errorf("soak: %w", err)
	}
	return nil
}

// contract resolves the validated PModel field (defaults() rejected
// anything unparsable, so the error is unreachable here).
func (c Config) contract() pmcontract.Contract {
	ct, _ := pmcontract.ParseContract(c.PModel)
	return ct
}

// maxKey bounds the key space after every possible insert: the preload
// plus one owned stride per client per op per phase, with slack for
// the ownership remapping.
func (c Config) maxKey() uint64 {
	return c.Keys + uint64(c.Clients)*(uint64(c.Phases)*uint64(c.OpsPerClient)+2)
}

// PhaseAudit is the outcome of one crash+recover+audit cycle.
type PhaseAudit struct {
	Phase      int    `json:"phase"`
	Recovered  int    `json:"recovered_txs"` // recovery replays/rollbacks across partitions
	Audited    int    `json:"audited_keys"`  // acknowledged keys checked
	Witnesses  int    `json:"witnesses"`     // word-level inconsistencies found
	Injections uint64 `json:"injections"`    // cumulative fault injections at audit time
	// DiffSample holds the first lines of the expected-vs-recovered
	// image diff ("partition.key: a=expected b=recovered").
	DiffSample string `json:"diff_sample,omitempty"`
}

// Result summarizes a soak run.
type Result struct {
	App            string        `json:"app"`
	Clients        int           `json:"clients"`
	Partitions     int           `json:"partitions"`
	Mix            string        `json:"mix"`
	Tracked        bool          `json:"tracked"`
	Buggy          bool          `json:"buggy"`
	Faults         string        `json:"faults"`
	PModel         string        `json:"pmodel,omitempty"`
	Ops            int           `json:"ops"`
	TrafficElapsed time.Duration `json:"traffic_elapsed_ns"`
	Phases         []PhaseAudit  `json:"phases"`
	TotalWitnesses int           `json:"total_witnesses"`
	CheckerStats   dynamic.Stats `json:"checker_stats"`
}

// Throughput is operations per second of traffic time (crash, recovery
// and audit windows excluded).
func (r *Result) Throughput() float64 {
	if r.TrafficElapsed <= 0 {
		return 0
	}
	return float64(r.Ops) / r.TrafficElapsed.Seconds()
}

// String renders the run summary.
func (r *Result) String() string {
	var b strings.Builder
	mode := "untracked"
	if r.Tracked {
		mode = "tracked"
	}
	fmt.Fprintf(&b, "soak %s: %d clients x %d partitions, mix %s, %s", r.App, r.Clients, r.Partitions, r.Mix, mode)
	if r.PModel != "" && r.PModel != "x86" {
		fmt.Fprintf(&b, ", pmodel %s", r.PModel)
	}
	if r.Buggy {
		b.WriteString(", planted bug")
	}
	if r.Faults != "" {
		fmt.Fprintf(&b, ", faults [%s]", r.Faults)
	}
	fmt.Fprintf(&b, "\n  %d ops in %v (%.0f op/s)\n", r.Ops, r.TrafficElapsed.Round(time.Millisecond), r.Throughput())
	for _, ph := range r.Phases {
		fmt.Fprintf(&b, "  phase %d: recovered %d txs, audited %d keys, %d witnesses (injections so far %d)\n",
			ph.Phase, ph.Recovered, ph.Audited, ph.Witnesses, ph.Injections)
		if ph.DiffSample != "" {
			for _, line := range strings.Split(strings.TrimRight(ph.DiffSample, "\n"), "\n") {
				fmt.Fprintf(&b, "    %s\n", line)
			}
		}
	}
	if r.Tracked {
		s := r.CheckerStats
		fmt.Fprintf(&b, "  checker: %d segments, %d cells, %d writes, %d reads, %d flushes, %d races\n",
			s.Segments, s.Cells, s.Writes, s.Reads, s.Flushes, s.RacesFound)
	}
	return b.String()
}

// clientState is one client's deterministic traffic state, persistent
// across phases.
type clientState struct {
	id      int
	gen     *workload.Generator
	oracle  map[uint64]uint64 // key -> last acknowledged stamp
	seq     uint64
	nextIns uint64 // next owned insert key (strides by the client count)
}

// stamp mints this client's next unique write stamp (never zero, never
// colliding with another client's or the preloader's).
func (cs *clientState) stamp() uint64 {
	cs.seq++
	return uint64(cs.id+1)<<40 | cs.seq
}

// preStamp is the preloader's stamp for key (top bit marks preload).
func preStamp(key uint64) uint64 { return 1<<63 | (key + 1) }

// owned remaps a drawn key into this client's residue class so every
// key has exactly one writer.
func owned(key uint64, clients, id int) uint64 {
	return key - key%uint64(clients) + uint64(id)
}

// Run executes the soak: preload, then Phases cycles of concurrent
// traffic, quiesce-crash of every partition, recovery, and the
// acknowledged-write audit.
func Run(cfg Config) (*Result, error) {
	if err := cfg.defaults(); err != nil {
		return nil, err
	}
	// A tracked soak shares one checker across the partitions, each
	// behind its address-namespacing offset.
	var checker *pmem.CheckerTracker
	if cfg.Tracked {
		checker = pmem.NewCheckerTracker()
	}
	targets := make([]target, cfg.Partitions)
	for p := range targets {
		var tr pmem.Tracker
		if checker != nil {
			tr = offsetTracker{inner: checker, off: uint64(p+1) << 44}
		}
		t, err := openTarget(cfg, p, tr)
		if err != nil {
			return nil, err
		}
		targets[p] = t
	}
	route := func(key uint64) target { return targets[key%uint64(cfg.Partitions)] }

	// Preload the initial space (single-threaded, thread 0).
	base := make(map[uint64]uint64, cfg.Keys)
	for k := uint64(0); k < cfg.Keys; k++ {
		if err := route(k).set(0, k, preStamp(k)); err != nil {
			return nil, fmt.Errorf("soak: preload key %d: %w", k, err)
		}
		base[k] = preStamp(k)
	}

	clients := make([]*clientState, cfg.Clients)
	for c := range clients {
		gen, err := workload.NewGenerator(cfg.Mix, cfg.Keys, cfg.Seed+int64(c)*7919+1)
		if err != nil {
			return nil, err
		}
		// First owned insert key: the smallest key above the preloaded
		// space congruent to c modulo the client count.
		cc := uint64(cfg.Clients)
		first := cfg.Keys - cfg.Keys%cc + cc + uint64(c)
		clients[c] = &clientState{
			id: c, gen: gen,
			oracle:  make(map[uint64]uint64),
			nextIns: first,
		}
	}

	res := &Result{
		App: cfg.App, Clients: cfg.Clients, Partitions: cfg.Partitions,
		Mix: cfg.Mix.Name, Tracked: cfg.Tracked, Buggy: cfg.Buggy,
		Faults: classNames(cfg.Faults), PModel: cfg.contract().Name(),
	}
	maxKey := cfg.maxKey()

	for ph := 0; ph < cfg.Phases; ph++ {
		// Traffic: every client runs its slice concurrently.
		errs := make([]error, cfg.Clients)
		var wg sync.WaitGroup
		start := time.Now()
		for _, cs := range clients {
			wg.Add(1)
			go func(cs *clientState) {
				defer wg.Done()
				errs[cs.id] = cs.drive(cfg, route, maxKey)
			}(cs)
		}
		wg.Wait()
		res.TrafficElapsed += time.Since(start)
		res.Ops += cfg.Clients * cfg.OpsPerClient
		for _, err := range errs {
			if err != nil {
				return nil, err
			}
		}

		// Quiesce-crash every partition, then recover.
		audit := PhaseAudit{Phase: ph + 1}
		for _, t := range targets {
			t.crash()
		}
		for p, t := range targets {
			n, err := t.recoverCrash()
			if err != nil {
				return nil, fmt.Errorf("soak: recover partition %d: %w", p, err)
			}
			audit.Recovered += n
		}

		// Audit: merge the acknowledged-write oracle (ownership makes
		// this conflict-free) and compare against post-recovery reads.
		expected := make(map[crashsim.Word]int64, len(base))
		keys := make([]uint64, 0, len(base))
		merged := make(map[uint64]uint64, len(base))
		for k, v := range base {
			merged[k] = v
		}
		for _, cs := range clients {
			for k, v := range cs.oracle {
				merged[k] = v
			}
		}
		for k := range merged {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
		observed := make(map[crashsim.Word]int64, len(merged))
		for _, k := range keys {
			w := crashsim.Word{Obj: int(k % uint64(cfg.Partitions)), Off: int(k)}
			expected[w] = int64(merged[k])
			got, ok, err := route(k).get(0, k)
			if err != nil {
				return nil, fmt.Errorf("soak: audit key %d: %w", k, err)
			}
			if ok {
				observed[w] = int64(got)
			}
		}
		diff := crashsim.NewImage(expected).Diff(crashsim.NewImage(observed))
		audit.Audited = len(keys)
		audit.Witnesses = strings.Count(diff, "\n")
		if audit.Witnesses > 0 {
			lines := strings.SplitN(diff, "\n", 6)
			if len(lines) > 5 {
				lines = lines[:5]
				lines = append(lines, fmt.Sprintf("... %d more", audit.Witnesses-5))
			}
			audit.DiffSample = strings.Join(lines, "\n")
		}
		for _, t := range targets {
			audit.Injections += t.stats().Injections
		}
		res.Phases = append(res.Phases, audit)
		res.TotalWitnesses += audit.Witnesses
	}
	if checker != nil {
		res.CheckerStats = checker.C.StatsSnapshot()
	}
	return res, nil
}

// drive runs one client's slice of a phase.
func (cs *clientState) drive(cfg Config, route func(uint64) target, maxKey uint64) error {
	thread := int64(cs.id + 1)
	for i := 0; i < cfg.OpsPerClient; i++ {
		op := cs.gen.Next()
		switch op.Kind {
		case workload.OpRead:
			if _, _, err := route(op.Key%maxKey).get(thread, op.Key%maxKey); err != nil {
				return err
			}
		case workload.OpScan:
			n := op.ScanLen
			if n > 8 {
				n = 8
			}
			for j := 0; j < n; j++ {
				k := (op.Key + uint64(j)) % maxKey
				if _, _, err := route(k).get(thread, k); err != nil {
					return err
				}
			}
		case workload.OpInsert:
			k := cs.nextIns
			cs.nextIns += uint64(cfg.Clients)
			s := cs.stamp()
			if err := route(k).set(thread, k, s); err != nil {
				return err
			}
			cs.oracle[k] = s
		case workload.OpUpdate:
			k := owned(op.Key, cfg.Clients, cs.id)
			s := cs.stamp()
			if err := route(k).set(thread, k, s); err != nil {
				return err
			}
			cs.oracle[k] = s
		case workload.OpRMW:
			k := owned(op.Key, cfg.Clients, cs.id)
			if _, _, err := route(k).get(thread, k); err != nil {
				return err
			}
			s := cs.stamp()
			if err := route(k).set(thread, k, s); err != nil {
				return err
			}
			cs.oracle[k] = s
		}
	}
	return nil
}

func classNames(cls []faultinj.Class) string {
	if len(cls) == 0 {
		return ""
	}
	parts := make([]string, len(cls))
	for i, c := range cls {
		parts[i] = c.String()
	}
	return strings.Join(parts, ",")
}
