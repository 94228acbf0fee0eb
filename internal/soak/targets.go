package soak

import (
	"encoding/binary"
	"fmt"

	"deepmc/internal/apps/memcache"
	"deepmc/internal/apps/nstore"
	"deepmc/internal/apps/redis"
	"deepmc/internal/faultinj"
	"deepmc/internal/nvm"
	"deepmc/internal/pmem"
	"deepmc/internal/pmem/mnemosyne"
	"deepmc/internal/pmem/pmdk"
)

// target is one partition of an app under soak: a stamped key/value
// surface plus crash and recovery controls over its private NVM pool.
// Stamps round-trip through the app's native value representation, so
// the audit exercises the real durable layout, not a shadow map.
type target interface {
	// set durably writes key's stamp; returning nil acknowledges it.
	set(thread int64, key, stamp uint64) error
	// get reads key's stamp (ok=false if the key is absent).
	get(thread int64, key uint64) (uint64, bool, error)
	// crash discards the partition's volatile pool state.
	crash()
	// recoverCrash runs the app's recovery pass (0 for apps without
	// one), returning how many transactions it replayed or rolled back.
	recoverCrash() (int, error)
	// stats snapshots the partition's NVM accounting.
	stats() nvm.Stats
}

// offsetTracker namespaces a partition's pool addresses before they
// reach the shared checker: pools allocate from offset 0, so without
// the shift partitions would alias each other in the shadow space and
// manufacture false cross-partition conflicts.  Bits 44+ are far above
// any simulated pool size.
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

// faultCfg builds one partition's injection config (nil when the run
// injects no faults).  Seeds differ per partition so schedules are
// independent but replayable.
func (c Config) faultCfg(part int) *faultinj.Config {
	if len(c.Faults) == 0 {
		return nil
	}
	rate := c.FaultRate
	if rate <= 0 || rate > 1 {
		rate = 1
	}
	return &faultinj.Config{
		Classes: c.Faults,
		Rate:    rate,
		Seed:    c.Seed*31 + int64(part) + 1,
	}
}

// ---------------------------------------------------------------------------
// memcache (Mnemosyne)

type memcacheTarget struct{ s *memcache.Store }

func openMemcache(cfg Config, part int, tr pmem.Tracker) (target, error) {
	size := 4<<20 + int(cfg.maxKey())*192/cfg.Partitions
	if size < 8<<20 {
		size = 8 << 20
	}
	s, err := memcache.Open(memcache.Config{
		Buckets: 1 << 12,
		Region: mnemosyne.Config{
			NVM:                nvm.Config{Size: size, Faults: cfg.faultCfg(part), Contract: cfg.contract()},
			Tracker:            tr,
			BuggyNoCommitFence: cfg.Buggy,
		},
	})
	if err != nil {
		return nil, err
	}
	return memcacheTarget{s: s}, nil
}

func (t memcacheTarget) set(thread int64, key, stamp uint64) error {
	words := make([]uint64, memcache.ValueWords)
	words[0] = stamp
	for i := 1; i < len(words); i++ {
		words[i] = stamp ^ uint64(i)*0x9e3779b97f4a7c15
	}
	return t.s.Set(thread, key, words)
}

func (t memcacheTarget) get(thread int64, key uint64) (uint64, bool, error) {
	v, ok, err := t.s.Get(thread, key)
	if err != nil || !ok {
		return 0, false, err
	}
	return v[0], true, nil
}

func (t memcacheTarget) crash()                     { t.s.Region().NVM().Crash() }
func (t memcacheTarget) recoverCrash() (int, error) { return t.s.Region().Recover() }
func (t memcacheTarget) stats() nvm.Stats           { return t.s.Region().NVM().Stats() }

// ---------------------------------------------------------------------------
// redis (PMDK)

type redisTarget struct{ db *redis.DB }

func openRedis(cfg Config, part int, tr pmem.Tracker) (target, error) {
	size := 4<<20 + int(cfg.maxKey())*256/cfg.Partitions
	if size < 8<<20 {
		size = 8 << 20
	}
	db, err := redis.Open(redis.Config{
		Buckets: 1 << 12,
		Pool: pmdk.Config{
			NVM:     nvm.Config{Size: size, Faults: cfg.faultCfg(part), Contract: cfg.contract()},
			Tracker: tr,
		},
	})
	if err != nil {
		return nil, err
	}
	return redisTarget{db: db}, nil
}

func (t redisTarget) set(thread int64, key, stamp uint64) error {
	var buf [redis.ValueBytes]byte
	binary.LittleEndian.PutUint64(buf[:8], stamp)
	return t.db.Set(thread, key, buf[:])
}

func (t redisTarget) get(thread int64, key uint64) (uint64, bool, error) {
	b, ok, err := t.db.Get(thread, key)
	if err != nil || !ok {
		return 0, false, err
	}
	return binary.LittleEndian.Uint64(b[:8]), true, nil
}

func (t redisTarget) crash() { t.db.Pool().NVM().Crash() }
func (t redisTarget) recoverCrash() (int, error) {
	rolled, err := t.db.Pool().Recover()
	if rolled {
		return 1, err
	}
	return 0, err
}
func (t redisTarget) stats() nvm.Stats { return t.db.Pool().NVM().Stats() }

// ---------------------------------------------------------------------------
// nstore (low-level WAL engine; no recovery pass)

type nstoreTarget struct {
	e     *nstore.Engine
	parts uint64
}

func openNStore(cfg Config, part int, tr pmem.Tracker) (target, error) {
	capacity := cfg.maxKey()/uint64(cfg.Partitions) + uint64(cfg.Clients) + 2
	size := 2<<20 + int(capacity)*160
	if size < 8<<20 {
		size = 8 << 20
	}
	e, err := nstore.Open(nstore.Config{
		NVM:                 nvm.Config{Size: size, Faults: cfg.faultCfg(part), Contract: cfg.contract()},
		Tracker:             tr,
		Capacity:            capacity,
		BuggyNoApplyPersist: cfg.Buggy,
	})
	if err != nil {
		return nil, err
	}
	return nstoreTarget{e: e, parts: uint64(cfg.Partitions)}, nil
}

// local maps the global key onto this partition's dense tuple index
// (partition = key % P, index = key / P — a bijection over the space).
func (t nstoreTarget) local(key uint64) uint64 { return key / t.parts }

func (t nstoreTarget) set(thread int64, key, stamp uint64) error {
	words := make([]uint64, nstore.TupleWords)
	words[0] = stamp
	for i := 1; i < len(words); i++ {
		words[i] = stamp ^ uint64(i)*0xff51afd7ed558ccd
	}
	return t.e.Update(thread, t.local(key), words)
}

func (t nstoreTarget) get(thread int64, key uint64) (uint64, bool, error) {
	v, ok, err := t.e.Read(thread, t.local(key))
	if err != nil || !ok {
		return 0, false, err
	}
	return v[0], true, nil
}

func (t nstoreTarget) crash()                     { t.e.NVM().Crash() }
func (t nstoreTarget) recoverCrash() (int, error) { return 0, nil } // nstore has no recovery
func (t nstoreTarget) stats() nvm.Stats           { return t.e.NVM().Stats() }

// openTarget builds one partition of the configured app.
func openTarget(cfg Config, part int, tr pmem.Tracker) (target, error) {
	switch cfg.App {
	case "memcache":
		return openMemcache(cfg, part, tr)
	case "redis":
		return openRedis(cfg, part, tr)
	case "nstore":
		return openNStore(cfg, part, tr)
	}
	return nil, fmt.Errorf("soak: unknown app %q (want memcache|redis|nstore)", cfg.App)
}
