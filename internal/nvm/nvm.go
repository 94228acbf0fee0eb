// Package nvm simulates byte-addressable non-volatile memory behind a
// volatile cache hierarchy — the substrate the paper's evaluation machine
// provides in hardware (§2.1).
//
// The model captures exactly the semantics the persistency bugs depend
// on, parameterized by a hardware persistency contract (package
// pmcontract).  Under the default x86 contract:
//
//   - Stores land in volatile cachelines; they are NOT durable.
//   - Flush (clwb) stages a cacheline for write-back.
//   - Fence (sfence) makes all staged lines durable, in order.
//   - A Crash discards everything not yet durable; Recover exposes the
//     durable image.
//   - Optional seeded random eviction spontaneously persists dirty lines,
//     reproducing the "unpredictable cache evictions" that make unflushed
//     writes intermittent in real hardware.
//
// Under the CXL contract (Config.Contract) the pool adds a device-side
// persistence domain: stores inside it are durable at store time (no
// flush needed — in-domain flushes are accounted no-ops), the fence is a
// global persist barrier that additionally commits the domain's
// device-side buffer, and a device failure (CrashDevice) rolls the
// domain back to its last barrier-committed image while host/power
// crashes (Crash) preserve it.  A CXL pool with an empty domain is
// byte-identical to an x86 pool in crash images and fault logs.
//
// The pool also keeps the accounting the performance experiments need:
// flush/fence counts, write-back traffic, and a simulated time model
// (flushes cost multiples of loads, per Izraelevitz et al. [21] as cited
// in the paper's §3.3).
package nvm

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"sort"
	"sync"

	"deepmc/internal/faultinj"
	"deepmc/internal/pmcontract"
)

// CachelineSize is the write-back granularity in bytes.
const CachelineSize = 64

// Config parameterizes a pool.
type Config struct {
	// Size is the pool capacity in bytes.
	Size int
	// EvictEvery spontaneously evicts one random dirty line every N
	// stores (0 disables eviction).
	EvictEvery int
	// Seed drives the eviction RNG (deterministic tests).
	Seed int64
	// Latency model, in simulated nanoseconds.  Defaults follow the
	// 2–4x flush-vs-store asymmetry the paper cites.
	StoreNs, LoadNs, FlushNs, FenceNs int64
	// Faults enables deterministic fault injection (package faultinj):
	// torn writes persist part of a multi-granule store early, dropped
	// flushes are retried at the next fence, reordered persists drain
	// staged lines in a scrambled (logged) order, and delayed drains add
	// fence latency.  All classes stay within the pool's contract; under
	// a CXL persistence domain, torn writes and dropped flushes cannot
	// fire on in-domain ranges (stores there are durable whole at store
	// time and have no clwb to drop).
	//
	// Replay determinism holds for single-threaded clients only: the
	// decision stream is a pure function of the pool's operation order,
	// which concurrent clients perturb.
	Faults *faultinj.Config
	// Contract is the hardware persistency contract the pool simulates.
	// The zero value is x86 (clwb/sfence), preserving every
	// pre-contract caller.  pmcontract.CXLContract adds the global
	// persist barrier and the device persistence domain described in
	// the package doc.
	Contract pmcontract.Contract
}

// DefaultConfig returns a 16 MiB pool with the default latency model and
// no random eviction.
func DefaultConfig() Config {
	return Config{
		Size:    16 << 20,
		StoreNs: 10,
		LoadNs:  10,
		FlushNs: 30,
		FenceNs: 20,
	}
}

// Stats is the pool's operation accounting.
type Stats struct {
	Stores        uint64
	Loads         uint64
	Flushes       uint64 // flush calls
	LinesFlushed  uint64 // cachelines staged
	Fences        uint64
	BytesWritten  uint64 // write-back traffic to the medium
	Evictions     uint64
	Injections    uint64 // faults injected (Config.Faults)
	SimulatedNs   int64
	AllocatedByte uint64
	// CXL persistence-domain accounting (zero under x86).
	DomainStores  uint64 // stores durable at store time (in-domain)
	DomainFlushes uint64 // accounted no-op flushes of in-domain ranges
	DomainCommits uint64 // buffered domain lines committed by barriers
}

// Pool is one simulated NVM device.
type Pool struct {
	mu  sync.Mutex
	cfg Config

	current []byte       // volatile view (cache + medium merged)
	durable []byte       // what survives a crash
	dirty   map[int]bool // line index -> modified since last write-back
	staged  map[int]bool // line index -> flushed, awaiting fence

	next       int // bump allocator cursor
	rng        *rand.Rand
	stats      Stats
	storeCount int

	sched   *faultinj.Schedule
	dropped map[int]bool // line index -> clwb dropped, retried at next fence

	// CXL persistence-domain state (nil/empty under x86 or an empty
	// domain).  devCommitted is the image a device failure exposes:
	// durable minus domain writes buffered device-side since the last
	// global persist barrier.  domainPending marks lines with such
	// buffered writes.
	devCommitted  []byte
	domainPending map[int]bool
}

// NewPool creates a pool.
func NewPool(cfg Config) *Pool {
	if cfg.Size <= 0 {
		cfg.Size = DefaultConfig().Size
	}
	d := DefaultConfig()
	if cfg.StoreNs == 0 {
		cfg.StoreNs = d.StoreNs
	}
	if cfg.LoadNs == 0 {
		cfg.LoadNs = d.LoadNs
	}
	if cfg.FlushNs == 0 {
		cfg.FlushNs = d.FlushNs
	}
	if cfg.FenceNs == 0 {
		if cfg.Contract.ID == pmcontract.CXL {
			cfg.FenceNs = cxlFenceNs
		} else {
			cfg.FenceNs = d.FenceNs
		}
	}
	p := &Pool{
		cfg:     cfg,
		current: make([]byte, cfg.Size),
		durable: make([]byte, cfg.Size),
		dirty:   make(map[int]bool),
		staged:  make(map[int]bool),
		dropped: make(map[int]bool),
		rng:     rand.New(rand.NewSource(cfg.Seed)),
	}
	if cfg.Contract.HasDomain() {
		p.devCommitted = make([]byte, cfg.Size)
		p.domainPending = make(map[int]bool)
	}
	if cfg.Faults != nil {
		p.sched = faultinj.New(*cfg.Faults)
	}
	return p
}

// cxlFenceNs is the default global-persist-barrier latency: the barrier
// round-trips to the CXL device to commit its buffered domain writes,
// so it costs more than a local sfence drain (the asymmetry the
// -pmodel bench measures).
const cxlFenceNs = 60

// CXLPool is a Pool running the CXL-era contract.  It is the same
// simulator parameterized differently, not a fork: every Pool method
// applies, plus CrashDevice (the failure domain x86 does not have).
type CXLPool = Pool

// NewCXLPool creates a pool under the CXL contract with the given
// device persistence domain.  An empty domain yields a pool whose crash
// images and fault logs are byte-identical to an x86 pool driven by the
// same operation sequence (only barrier latency differs).
func NewCXLPool(cfg Config, domain pmcontract.Domain) *CXLPool {
	cfg.Contract = pmcontract.CXLContract(domain)
	return NewPool(cfg)
}

// Contract returns the pool's hardware persistency contract.
func (p *Pool) Contract() pmcontract.Contract { return p.cfg.Contract }

// FaultLog returns the byte-replayable injection log (empty without
// Config.Faults).  Two pools driven by the same single-threaded
// operation sequence produce byte-identical logs.
func (p *Pool) FaultLog() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.sched == nil {
		return ""
	}
	return p.sched.Log()
}

// Size returns the pool capacity.
func (p *Pool) Size() int { return p.cfg.Size }

// Stats returns a snapshot of the accounting counters.
func (p *Pool) Stats() Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stats
}

// ResetStats zeroes the counters (between benchmark phases).
func (p *Pool) ResetStats() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.stats = Stats{AllocatedByte: p.stats.AllocatedByte}
}

// Alloc reserves size bytes, cacheline-aligned, and returns the offset.
func (p *Pool) Alloc(size int) (int, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	aligned := (p.next + CachelineSize - 1) &^ (CachelineSize - 1)
	if aligned+size > p.cfg.Size {
		return 0, fmt.Errorf("nvm: out of space (want %d at %d of %d)", size, aligned, p.cfg.Size)
	}
	p.next = aligned + size
	p.stats.AllocatedByte += uint64(size)
	return aligned, nil
}

func (p *Pool) check(addr, size int) error {
	if addr < 0 || size < 0 || addr+size > p.cfg.Size {
		return fmt.Errorf("nvm: access [%d,%d) out of pool bounds %d", addr, addr+size, p.cfg.Size)
	}
	return nil
}

// Store writes bytes into the volatile view and marks the lines dirty.
// Inside a CXL persistence domain the store is durable at store time
// instead: it lands in the durable image immediately (buffered
// device-side until the next global persist barrier commits it against
// device failure) and never passes through the dirty/staged machinery —
// so torn writes and evictions cannot touch it.
func (p *Pool) Store(addr int, data []byte) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if err := p.check(addr, len(data)); err != nil {
		return err
	}
	copy(p.current[addr:], data)
	if p.cfg.Contract.AutoPersists(addr, len(data)) {
		copy(p.durable[addr:addr+len(data)], data)
		for l := addr / CachelineSize; l <= (addr+len(data)-1)/CachelineSize; l++ {
			p.domainPending[l] = true
		}
		p.stats.Stores++
		p.stats.DomainStores++
		p.stats.BytesWritten += uint64(len(data))
		p.stats.SimulatedNs += p.cfg.StoreNs
		return nil
	}
	for l := addr / CachelineSize; l <= (addr+len(data)-1)/CachelineSize; l++ {
		p.dirty[l] = true
	}
	p.stats.Stores++
	p.stats.SimulatedNs += p.cfg.StoreNs
	p.tearWrite(addr, len(data))
	p.maybeEvict()
	return nil
}

// tearWrite injects a torn write: a nonempty proper subset of the
// store's 8-byte granules persists immediately (early partial eviction
// of the line — legal for dirty data at any time).  The lines stay
// dirty: the untorn granules are still volatile.  Caller holds mu.
func (p *Pool) tearWrite(addr, size int) {
	const granule = 8
	if p.sched == nil || size < 2*granule || !p.sched.Fire(faultinj.TornWrite) {
		return
	}
	grans := (size + granule - 1) / granule
	sel := p.sched.Subset(grans)
	for _, g := range sel {
		start := addr + g*granule
		end := start + granule
		if end > p.cfg.Size {
			end = p.cfg.Size
		}
		copy(p.durable[start:end], p.current[start:end])
		p.mirrorCommitted(start, end)
		p.stats.BytesWritten += uint64(end - start)
	}
	p.stats.Injections++
	p.sched.Record(faultinj.TornWrite, fmt.Sprintf("pool+%d", addr),
		fmt.Sprintf("store size=%d persisted granules=%v", size, sel))
}

// Store64 writes one little-endian 64-bit word.
func (p *Pool) Store64(addr int, v uint64) error {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	return p.Store(addr, b[:])
}

// Load reads size bytes from the volatile view.
func (p *Pool) Load(addr, size int) ([]byte, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if err := p.check(addr, size); err != nil {
		return nil, err
	}
	out := make([]byte, size)
	copy(out, p.current[addr:addr+size])
	p.stats.Loads++
	p.stats.SimulatedNs += p.cfg.LoadNs
	return out, nil
}

// Load64 reads one little-endian 64-bit word.
func (p *Pool) Load64(addr int) (uint64, error) {
	b, err := p.Load(addr, 8)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(b), nil
}

// Flush stages the cachelines covering [addr, addr+size) for write-back
// (clwb semantics: durability only after the next Fence).
func (p *Pool) Flush(addr, size int) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if err := p.check(addr, size); err != nil {
		return err
	}
	if size == 0 {
		size = 1
	}
	if p.cfg.Contract.AutoPersists(addr, size) {
		// In-domain data was durable at store time: the clwb writes back
		// nothing (and there is no clwb for a dropped-flush fault to
		// drop).  Accounted as a cheap no-op — the waste DMC-X01 flags.
		p.stats.Flushes++
		p.stats.DomainFlushes++
		p.stats.SimulatedNs += p.cfg.LoadNs
		return nil
	}
	p.stats.Flushes++
	if p.sched != nil && p.sched.Fire(faultinj.DroppedFlush) {
		// The clwb is transiently dropped; Fence retries it, so the
		// sfence durability guarantee is unchanged — but until then the
		// lines stay dirty instead of staged (wider crash surface).
		first := addr / CachelineSize
		last := (addr + size - 1) / CachelineSize
		for l := first; l <= last; l++ {
			p.dropped[l] = true
		}
		p.stats.Injections++
		p.stats.SimulatedNs += p.cfg.FlushNs
		p.sched.Record(faultinj.DroppedFlush, fmt.Sprintf("pool+%d", addr),
			fmt.Sprintf("clwb lines [%d,%d] dropped, retried at next fence", first, last))
		return nil
	}
	for l := addr / CachelineSize; l <= (addr+size-1)/CachelineSize; l++ {
		if p.dirty[l] || p.staged[l] {
			p.staged[l] = true
			p.stats.LinesFlushed++
		} else {
			// Clean-line flush still costs a write-back on real hardware
			// (clwb of a clean line is cheap but not free); account it.
			p.stats.LinesFlushed++
			p.staged[l] = true
		}
		p.stats.SimulatedNs += p.cfg.FlushNs
	}
	return nil
}

// Fence makes all staged lines durable (sfence + drain semantics).
// Dropped-flush lines are retried here (hardware re-issues the clwb at
// the drain), so the fence guarantee holds under fault injection.
func (p *Pool) Fence() {
	p.mu.Lock()
	defer p.mu.Unlock()
	for l := range p.dropped {
		if p.dirty[l] {
			p.staged[l] = true
			p.stats.LinesFlushed++
			p.stats.SimulatedNs += p.cfg.FlushNs
		}
	}
	p.dropped = make(map[int]bool)
	lines := make([]int, 0, len(p.staged))
	for l := range p.staged {
		lines = append(lines, l)
	}
	sort.Ints(lines)
	if p.sched != nil && len(lines) > 1 && p.sched.Fire(faultinj.ReorderedPersist) {
		// Drain in a scrambled order.  The post-fence durable state is
		// order-independent; the logged order is what a mid-drain crash
		// would expose, and the crash simulator explores those states.
		perm := p.sched.Perm(len(lines))
		reordered := make([]int, len(lines))
		for i, j := range perm {
			reordered[i] = lines[j]
		}
		lines = reordered
		p.stats.Injections++
		p.sched.Record(faultinj.ReorderedPersist, "pool fence",
			fmt.Sprintf("drain order %v", lines))
	}
	for _, l := range lines {
		p.writeBack(l)
	}
	p.staged = make(map[int]bool)
	// Under CXL the fence is a global persist barrier: it additionally
	// commits the device-side domain buffer, after which a device
	// failure can no longer discard those writes.
	if len(p.domainPending) > 0 {
		committed := make([]int, 0, len(p.domainPending))
		for l := range p.domainPending {
			committed = append(committed, l)
		}
		sort.Ints(committed)
		p.domainPending = make(map[int]bool)
		for _, l := range committed {
			start := l * CachelineSize
			end := start + CachelineSize
			if end > p.cfg.Size {
				end = p.cfg.Size
			}
			p.mirrorCommitted(start, end)
		}
		p.stats.DomainCommits += uint64(len(committed))
	}
	p.stats.Fences++
	p.stats.SimulatedNs += p.cfg.FenceNs
	if p.sched != nil && len(lines) > 0 && p.sched.Fire(faultinj.DelayedDrain) {
		// The drain lags: charge extra fence latency.  The log records
		// the lag in fence-latency multiples, not ns, so schedules stay
		// byte-comparable across contracts with different barrier costs.
		mult := int64(1 + p.sched.Intn(4))
		p.stats.SimulatedNs += mult * p.cfg.FenceNs
		p.stats.Injections++
		p.sched.Record(faultinj.DelayedDrain, "pool fence",
			fmt.Sprintf("drain of %d lines lagged %dx fence latency", len(lines), mult))
	}
}

// writeBack copies one line into the durable image.  Caller holds mu.
func (p *Pool) writeBack(line int) {
	start := line * CachelineSize
	end := start + CachelineSize
	if end > p.cfg.Size {
		end = p.cfg.Size
	}
	copy(p.durable[start:end], p.current[start:end])
	p.mirrorCommitted(start, end)
	delete(p.dirty, line)
	p.stats.BytesWritten += uint64(end - start)
}

// mirrorCommitted copies durable[start:end) into the device-committed
// image, skipping bytes of domain writes still buffered device-side
// (they commit at the next global persist barrier, not here).  No-op
// under x86 or an empty domain.  Caller holds mu.
func (p *Pool) mirrorCommitted(start, end int) {
	if p.devCommitted == nil {
		return
	}
	for l := start / CachelineSize; l <= (end-1)/CachelineSize; l++ {
		ls := l * CachelineSize
		le := ls + CachelineSize
		if ls < start {
			ls = start
		}
		if le > end {
			le = end
		}
		if p.domainPending[l] {
			// The line holds uncommitted domain bytes (it straddles the
			// domain boundary, or a barrier has not run yet): mirror only
			// the out-of-domain bytes.
			for b := ls; b < le; b++ {
				if !p.cfg.Contract.Domain.Contains(b, 1) {
					p.devCommitted[b] = p.durable[b]
				}
			}
		} else {
			copy(p.devCommitted[ls:le], p.durable[ls:le])
		}
	}
}

// maybeEvict spontaneously persists a random dirty line.  Caller holds mu.
func (p *Pool) maybeEvict() {
	if p.cfg.EvictEvery <= 0 {
		return
	}
	p.storeCount++
	if p.storeCount%p.cfg.EvictEvery != 0 || len(p.dirty) == 0 {
		return
	}
	// Pick a pseudo-random dirty line deterministically.
	k := p.rng.Intn(len(p.dirty))
	for l := range p.dirty {
		if k == 0 {
			p.writeBack(l)
			p.stats.Evictions++
			return
		}
		k--
	}
}

// Crash discards all volatile state: dirty lines vanish; staged-but-not-
// fenced lines vanish too (the strictest reading of clwb without sfence).
// Under CXL this is the host/power failure domain: the persistence
// domain survives (its energy reserve drains buffered writes), so the
// durable image — which in-domain stores entered at store time — is
// exposed unchanged.  Device-side buffer state is device state and also
// survives a host crash: writes still uncommitted by a global barrier
// remain exposed to a later CrashDevice.
func (p *Pool) Crash() {
	p.mu.Lock()
	defer p.mu.Unlock()
	copy(p.current, p.durable)
	p.dirty = make(map[int]bool)
	p.staged = make(map[int]bool)
	p.dropped = make(map[int]bool)
}

// CrashDevice simulates the CXL-only failure domain: the device fails,
// losing domain writes buffered since the last global persist barrier —
// the domain rolls back to its barrier-committed image.  Host volatile
// state is discarded too (recovery restarts the program).  Under x86 or
// an empty domain there is no device buffer, so CrashDevice degenerates
// to Crash.
func (p *Pool) CrashDevice() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.devCommitted != nil {
		copy(p.durable, p.devCommitted)
		p.domainPending = make(map[int]bool)
	}
	copy(p.current, p.durable)
	p.dirty = make(map[int]bool)
	p.staged = make(map[int]bool)
	p.dropped = make(map[int]bool)
}

// DurableLoad reads from the durable image without simulating a crash
// (test inspection helper).
func (p *Pool) DurableLoad(addr, size int) ([]byte, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if err := p.check(addr, size); err != nil {
		return nil, err
	}
	out := make([]byte, size)
	copy(out, p.durable[addr:addr+size])
	return out, nil
}

// DurableLoad64 reads one durable 64-bit word.
func (p *Pool) DurableLoad64(addr int) (uint64, error) {
	b, err := p.DurableLoad(addr, 8)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(b), nil
}

// PersistAll flushes and fences every dirty line and commits the domain
// buffer (pool shutdown helper).
func (p *Pool) PersistAll() {
	p.mu.Lock()
	defer p.mu.Unlock()
	for l := range p.dirty {
		p.writeBack(l)
	}
	p.staged = make(map[int]bool)
	p.dropped = make(map[int]bool)
	if len(p.domainPending) > 0 {
		p.domainPending = make(map[int]bool)
		if p.devCommitted != nil {
			copy(p.devCommitted, p.durable)
		}
	}
}
