package main

// soak-tracked: client KV operations on the memcache store over the
// Mnemosyne port with the dynamic checker attached, the shape of the
// paper's Figure 12.  The same seeded op stream also drives an
// untracked store set, phase by phase, for untracked_ops_per_s.  Phases
// are separated by an untimed quiesce-crash, recovery and audit of every
// acknowledged write.  Every call into DeepMC made by this workload is
// in this file.

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"deepmc/internal/apps/memcache"
	"deepmc/internal/nvm"
	"deepmc/internal/pmem"
	"deepmc/internal/pmem/mnemosyne"
	kv "deepmc/internal/workload"
)

const (
	soakClients    = 2
	soakPartitions = 2
	soakKeys       = 4096
	soakPhases     = 4
	// soakBatch KV ops form one timed op, about 10 ms of work.
	soakBatch = 512
	// soakBatchesPerSecond is each client's batch count per nominal
	// second, split over the tracked and untracked store sets.
	soakBatchesPerSecond = 80
	soakWarmBatches      = 2
)

// soakMix is soak's default mix over zipfian keys.
var soakMix = kv.Mix{Name: "soak-default-zipf", Read: 50, Update: 40, Insert: 5, RMW: 5, Zipfian: true}

// soakClient is one client's op stream and acknowledged-write oracle.
type soakClient struct {
	id      int
	gen     *kv.Generator
	oracle  map[uint64]uint64 // key -> last acknowledged stamp
	seq     uint64
	nextIns uint64 // next owned insert key
}

// storeSet is one partitioned memcache deployment and its clients.
type storeSet struct {
	parts   []*memcache.Store
	checker *pmem.CheckerTracker // nil when untracked
	timing  *timingTracker       // non-nil in a traced pass
	clients []*soakClient
	maxKey  uint64
}

type soakTracked struct {
	p         params
	batches   int // per client per phase
	tracked   *storeSet
	untracked *storeSet
}

func newSoakTracked(p params) workload {
	return &soakTracked{p: p, batches: soakBatchesPerSecond * p.seconds / p.scale / soakPhases}
}

func (w *soakTracked) close() { w.tracked, w.untracked = nil, nil }

func (w *soakTracked) setup(traced bool) error {
	w.close()
	var err error
	if w.tracked, err = w.open(true, traced); err != nil {
		return err
	}
	if w.untracked, err = w.open(false, false); err != nil {
		return err
	}
	// Warm-up: a few untimed batches per client on each set.
	for _, s := range []*storeSet{w.tracked, w.untracked} {
		if _, failed := s.traffic(soakWarmBatches, nil); failed > 0 {
			return fmt.Errorf("warm-up: %d batches failed", failed)
		}
	}
	return nil
}

// open builds a store set and preloads the key space.
func (w *soakTracked) open(tracked, timed bool) (*storeSet, error) {
	s := &storeSet{}
	// Inserts are 5% of the mix; sizing for 10% leaves a margin no
	// seeded stream reaches, and an insert past it fails its batch.
	perClient := uint64(soakPhases*w.batches+soakWarmBatches) * soakBatch
	s.maxKey = soakKeys + soakClients*(perClient/10+2)
	var tr pmem.Tracker
	if tracked {
		s.checker = pmem.NewCheckerTracker()
		tr = s.checker
		if timed {
			s.timing = &timingTracker{inner: s.checker}
			tr = s.timing
		}
	}
	size := 4<<20 + int(s.maxKey)*192/soakPartitions
	for p := 0; p < soakPartitions; p++ {
		var ptr pmem.Tracker
		if tr != nil {
			ptr = offsetTracker{inner: tr, off: uint64(p+1) << 44}
		}
		st, err := memcache.Open(memcache.Config{
			Buckets: 1 << 12,
			Region:  mnemosyne.Config{NVM: nvm.Config{Size: size}, Tracker: ptr},
		})
		if err != nil {
			return nil, err
		}
		s.parts = append(s.parts, st)
	}
	for k := uint64(0); k < soakKeys; k++ {
		if err := s.set(0, k, preStamp(k)); err != nil {
			return nil, fmt.Errorf("preload key %d: %w", k, err)
		}
	}
	for c := 0; c < soakClients; c++ {
		gen, err := kv.NewGenerator(soakMix, soakKeys, w.p.seed*7919+int64(c)+1)
		if err != nil {
			return nil, err
		}
		first := soakKeys - soakKeys%soakClients + soakClients + uint64(c)
		s.clients = append(s.clients, &soakClient{id: c, gen: gen, oracle: map[uint64]uint64{}, nextIns: first})
	}
	return s, nil
}

func preStamp(key uint64) uint64 { return 1<<63 | (key + 1) }

func (s *storeSet) part(key uint64) *memcache.Store { return s.parts[key%soakPartitions] }

func (s *storeSet) set(thread int64, key, stamp uint64) error {
	words := make([]uint64, memcache.ValueWords)
	words[0] = stamp
	for i := 1; i < len(words); i++ {
		words[i] = stamp ^ uint64(i)*0x9e3779b97f4a7c15
	}
	return s.part(key).Set(thread, key, words)
}

func (s *storeSet) get(thread int64, key uint64) (uint64, bool, error) {
	v, ok, err := s.part(key).Get(thread, key)
	if err != nil || !ok {
		return 0, false, err
	}
	return v[0], true, nil
}

// batch runs one client's next soakBatch ops.  Writes are
// ownership-partitioned (client c writes only keys congruent to c), so
// the last acknowledged stamp per key is well defined.
func (s *storeSet) batch(cs *soakClient) error {
	thread := int64(cs.id + 1)
	stamp := func() uint64 { cs.seq++; return uint64(cs.id+1)<<40 | cs.seq }
	owned := func(k uint64) uint64 { return k - k%soakClients + uint64(cs.id) }
	for i := 0; i < soakBatch; i++ {
		op := cs.gen.Next()
		var k uint64
		switch op.Kind {
		case kv.OpRead:
			if _, _, err := s.get(thread, op.Key%s.maxKey); err != nil {
				return err
			}
			continue
		case kv.OpInsert:
			k = cs.nextIns
			cs.nextIns += soakClients
		case kv.OpUpdate:
			k = owned(op.Key)
		case kv.OpRMW:
			k = owned(op.Key)
			if _, _, err := s.get(thread, k); err != nil {
				return err
			}
		default:
			return fmt.Errorf("unexpected op kind %v", op.Kind)
		}
		st := stamp()
		if err := s.set(thread, k, st); err != nil {
			return err
		}
		cs.oracle[k] = st
	}
	return nil
}

// traffic runs n batches per client, clients concurrently, and returns
// the per-batch latencies (ms) and the number of failed batches.
func (s *storeSet) traffic(n int, lat *[]float64) (time.Duration, int) {
	lats := make([][]float64, len(s.clients))
	failed := make([]int, len(s.clients))
	var wg sync.WaitGroup
	start := time.Now()
	for _, cs := range s.clients {
		wg.Add(1)
		go func(cs *soakClient) {
			defer wg.Done()
			for b := 0; b < n; b++ {
				t0 := time.Now()
				if err := s.batch(cs); err != nil {
					failed[cs.id]++
				}
				lats[cs.id] = append(lats[cs.id], ms(time.Since(t0)))
			}
		}(cs)
	}
	wg.Wait()
	elapsed := time.Since(start)
	nf := 0
	for c := range s.clients {
		if lat != nil {
			*lat = append(*lat, lats[c]...)
		}
		nf += failed[c]
	}
	return elapsed, nf
}

// audit crashes every partition with all clients parked, recovers it,
// and reads back every acknowledged key.  It returns the number of
// audited keys and of keys whose recovered stamp differs.
func (s *storeSet) audit() (int, int, error) {
	for _, p := range s.parts {
		p.Region().NVM().Crash()
	}
	for i, p := range s.parts {
		if _, err := p.Region().Recover(); err != nil {
			return 0, 0, fmt.Errorf("recover partition %d: %w", i, err)
		}
	}
	want := make(map[uint64]uint64, soakKeys)
	for k := uint64(0); k < soakKeys; k++ {
		want[k] = preStamp(k)
	}
	for _, cs := range s.clients {
		for k, v := range cs.oracle {
			want[k] = v
		}
	}
	keys := make([]uint64, 0, len(want))
	for k := range want {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	witnesses := 0
	for _, k := range keys {
		got, ok, err := s.get(0, k)
		if err != nil {
			return 0, 0, fmt.Errorf("audit key %d: %w", k, err)
		}
		if !ok || got != want[k] {
			witnesses++
		}
	}
	return len(keys), witnesses, nil
}

// nvmStats sums the set's pool counters.
func (s *storeSet) nvmStats() nvm.Stats {
	var sum nvm.Stats
	for _, p := range s.parts {
		st := p.Region().NVM().Stats()
		sum.Stores += st.Stores
		sum.Flushes += st.Flushes
		sum.Fences += st.Fences
		sum.BytesWritten += st.BytesWritten
	}
	return sum
}

func (w *soakTracked) pass(tr *tracer) (*passResult, error) {
	pr := &passResult{layers: map[string]float64{}}
	nvm0 := w.tracked.nvmStats()
	var trackedTime, untrackedTime time.Duration
	audits, audited, witnesses := 0, 0, 0
	for ph := 0; ph < soakPhases; ph++ {
		sets := []*storeSet{w.tracked, w.untracked}
		if ph%2 == 1 {
			sets[0], sets[1] = sets[1], sets[0] // alternate which set goes first
		}
		for _, s := range sets {
			var lat *[]float64
			if s == w.tracked {
				lat = &pr.lat
			}
			runtime.GC()
			d, failed := s.traffic(w.batches, lat)
			pr.attempted += w.batches * soakClients
			if s == w.tracked {
				trackedTime += d
			} else {
				untrackedTime += d
			}
			var n, wit int
			var err error
			tr.timed("soak.audit", ph, -1, func() { n, wit, err = s.audit() })
			if err != nil {
				return nil, err
			}
			audits++
			audited += n
			witnesses += wit
			if wit > 0 {
				failed = w.batches * soakClients // the phase's acknowledged writes were not all durable
			}
			pr.failed += failed
		}
	}
	races := w.tracked.checker.C.StatsSnapshot().RacesFound
	if races > 0 {
		pr.failed = pr.attempted
	}
	kvOps := float64(soakPhases * w.batches * soakClients * soakBatch)
	pr.elapsed = trackedTime
	pr.units = kvOps
	pr.untrackedPerS = kvOps / untrackedTime.Seconds()
	pr.ops = int(kvOps)
	if tr != nil {
		w.layers(pr, nvm0, audits, audited, witnesses, races)
		pr.layers["soak.audit_ms"] = perCallMs(tr.totals(), "soak.audit")
	}
	return pr, nil
}

// layers fills the traced pass's per-layer metrics: per KV op unless
// the name says otherwise.
func (w *soakTracked) layers(pr *passResult, nvm0 nvm.Stats, audits, audited, witnesses, races int) {
	kv := float64(pr.ops)
	L := pr.layers
	t := w.tracked.timing
	perEvent := func(ns, n *atomic.Int64) float64 {
		if n.Load() == 0 {
			return 0
		}
		return float64(ns.Load()) / float64(n.Load())
	}
	L["dynamic.write_ns"] = perEvent(&t.writeNs, &t.writes)
	L["dynamic.read_ns"] = perEvent(&t.readNs, &t.reads)
	L["dynamic.fence_ns"] = perEvent(&t.fenceNs, &t.fences)
	L["dynamic.lock_ns"] = perEvent(&t.lockNs, &t.locks)
	L["dynamic.events"] = float64(t.writes.Load()+t.reads.Load()+t.fences.Load()+t.locks.Load()) / kv
	st := w.tracked.checker.C.StatsSnapshot()
	L["dynamic.cells"] = float64(st.Cells)
	L["dynamic.races"] = float64(races)
	nv := w.tracked.nvmStats()
	L["nvm.stores"] = float64(nv.Stores-nvm0.Stores) / kv
	L["nvm.flushes"] = float64(nv.Flushes-nvm0.Flushes) / kv
	L["nvm.fences"] = float64(nv.Fences-nvm0.Fences) / kv
	L["nvm.bytes_written"] = float64(nv.BytesWritten-nvm0.BytesWritten) / kv
	L["soak.audited_keys"] = float64(audited) / float64(audits)
	L["soak.witnesses"] = float64(witnesses)
}

// offsetTracker namespaces one partition's pool addresses before they
// reach the shared checker, so partitions do not alias.
type offsetTracker struct {
	inner pmem.Tracker
	off   uint64
}

func (t offsetTracker) Write(thread int64, addr uint64, fn string) {
	t.inner.Write(thread, addr+t.off, fn)
}
func (t offsetTracker) Read(thread int64, addr uint64, fn string) {
	t.inner.Read(thread, addr+t.off, fn)
}
func (t offsetTracker) Fence(thread int64)             { t.inner.Fence(thread) }
func (t offsetTracker) Acquire(thread int64, lock any) { t.inner.Acquire(thread, lock) }
func (t offsetTracker) Release(thread int64, lock any) { t.inner.Release(thread, lock) }

// timingTracker forwards every tracker call unchanged and times it.
type timingTracker struct {
	inner                            pmem.Tracker
	writeNs, readNs, fenceNs, lockNs atomic.Int64
	writes, reads, fences, locks     atomic.Int64
}

func (t *timingTracker) Write(thread int64, addr uint64, fn string) {
	t0 := time.Now()
	t.inner.Write(thread, addr, fn)
	t.writeNs.Add(int64(time.Since(t0)))
	t.writes.Add(1)
}

func (t *timingTracker) Read(thread int64, addr uint64, fn string) {
	t0 := time.Now()
	t.inner.Read(thread, addr, fn)
	t.readNs.Add(int64(time.Since(t0)))
	t.reads.Add(1)
}

func (t *timingTracker) Fence(thread int64) {
	t0 := time.Now()
	t.inner.Fence(thread)
	t.fenceNs.Add(int64(time.Since(t0)))
	t.fences.Add(1)
}

func (t *timingTracker) Acquire(thread int64, lock any) {
	t0 := time.Now()
	t.inner.Acquire(thread, lock)
	t.lockNs.Add(int64(time.Since(t0)))
	t.locks.Add(1)
}

func (t *timingTracker) Release(thread int64, lock any) {
	t0 := time.Now()
	t.inner.Release(thread, lock)
	t.lockNs.Add(int64(time.Since(t0)))
	t.locks.Add(1)
}
