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
//
// The "unpredictable cache evictions" that make unflushed writes
// intermittent on real hardware are the torn-write fault class
// (Config.Faults): part of a dirty store persists early.
//
// Under the CXL contract (Config.Contract) with a persistence domain,
// the domain is the whole pool: every store is durable at store time
// (no flush needed — flushes are accounted no-ops), the fence is a
// global persist barrier that additionally commits the domain's
// device-side buffer, and a device failure (CrashDevice) rolls the pool
// back to its last barrier-committed image while host/power crashes
// (Crash) preserve it.  A CXL pool with an empty domain is
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
	"slices"
	"sync"

	"deepmc/internal/faultinj"
	"deepmc/internal/pmcontract"
)

// CachelineSize is the write-back granularity in bytes.
const CachelineSize = 64

// defaultSize is the capacity of a pool whose Config.Size is unset.
const defaultSize = 16 << 20

// Latency model, in simulated nanoseconds: the 2–4x flush-vs-store
// asymmetry the paper cites.  A CXL fence is a global persist barrier
// that round-trips to the device to commit its buffered domain writes,
// so it costs more than a local sfence drain (the asymmetry the -pmodel
// bench measures).
const (
	storeNs    = 10
	loadNs     = 10
	flushNs    = 30
	fenceNs    = 20
	cxlFenceNs = 60
)

// Config parameterizes a pool.
type Config struct {
	// Size is the pool capacity in bytes (16 MiB when unset).
	Size int
	// Faults enables deterministic fault injection (package faultinj):
	// torn writes persist part of a multi-granule store early (the
	// early eviction of a dirty line), dropped flushes are retried at
	// the next fence, reordered persists drain staged lines in a
	// scrambled (logged) order, and delayed drains add fence latency.
	// All classes stay within the pool's contract; in a CXL pool with a
	// persistence domain none can fire (stores there are durable whole
	// at store time, and nothing is ever staged).
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

// Stats is the pool's operation accounting.
type Stats struct {
	Stores        uint64
	Loads         uint64
	Flushes       uint64 // flush calls
	LinesFlushed  uint64 // cachelines staged
	Fences        uint64
	BytesWritten  uint64 // write-back traffic to the medium
	Injections    uint64 // faults injected (Config.Faults)
	SimulatedNs   int64
	AllocatedByte uint64
	// CXL persistence-domain accounting (zero under x86).
	DomainStores  uint64 // stores durable at store time (in-domain)
	DomainFlushes uint64 // accounted no-op flushes of in-domain ranges
	DomainCommits uint64 // buffered domain lines committed by barriers
}

// Per-cacheline state bits, kept in Pool.lines.
const (
	lineDirty   uint8 = 1 << iota // modified since its last write-back
	lineStaged                    // flushed, awaiting the next fence
	lineDropped                   // clwb dropped by fault injection, retried at the next fence
	linePending                   // domain write buffered device-side until the next barrier
)

// Pool is one simulated NVM device.
type Pool struct {
	mu      sync.Mutex
	cfg     Config
	fenceNs int64

	current []byte // volatile view (cache + medium merged)
	durable []byte // what survives a crash
	// lines holds each cacheline's state bits.  It has a slot past the
	// last line, which a zero-size flush at the pool end stages.
	lines []uint8
	// fenced lists, once each, the lines holding a staged, dropped or
	// pending bit: the lines the next fence acts on.
	fenced []int
	drain  []int // Fence's scratch list of staged lines

	next  int // bump allocator cursor
	stats Stats
	sched *faultinj.Schedule

	// devCommitted is the image a device failure exposes: durable minus
	// the domain writes buffered device-side since the last global
	// persist barrier.  It is non-nil exactly when the contract has a
	// persistence domain; such a pool's lines only ever hold pending
	// bits, and an x86 or empty-domain pool's never do.
	devCommitted []byte
}

// NewPool creates a pool.
func NewPool(cfg Config) *Pool {
	if cfg.Size <= 0 {
		cfg.Size = defaultSize
	}
	p := &Pool{
		cfg:     cfg,
		fenceNs: fenceNs,
		current: make([]byte, cfg.Size),
		durable: make([]byte, cfg.Size),
		lines:   make([]uint8, cfg.Size/CachelineSize+1),
	}
	if cfg.Contract.ID == pmcontract.CXL {
		p.fenceNs = cxlFenceNs
	}
	if cfg.Contract.HasDomain() {
		p.devCommitted = make([]byte, cfg.Size)
	}
	if cfg.Faults != nil {
		p.sched = faultinj.New(*cfg.Faults)
	}
	return p
}

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
// Under a CXL persistence domain the store is durable at store time
// instead: it lands in the durable image immediately (buffered
// device-side until the next global persist barrier commits it against
// device failure) and never passes through the dirty/staged machinery —
// so torn writes cannot touch it.
func (p *Pool) Store(addr int, data []byte) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if err := p.check(addr, len(data)); err != nil {
		return err
	}
	copy(p.current[addr:], data)
	p.stats.Stores++
	p.stats.SimulatedNs += storeNs
	first, last := addr/CachelineSize, (addr+len(data)-1)/CachelineSize
	if p.devCommitted != nil {
		copy(p.durable[addr:], data)
		for l := first; l <= last; l++ {
			p.mark(l, linePending)
		}
		p.stats.DomainStores++
		p.stats.BytesWritten += uint64(len(data))
		return nil
	}
	for l := first; l <= last; l++ {
		p.lines[l] |= lineDirty
	}
	p.tearWrite(addr, len(data))
	return nil
}

// mark sets a fence-time bit (staged, dropped or pending) on line l,
// listing the line for the next fence when it gains its first one.
// Caller holds mu.
func (p *Pool) mark(l int, bit uint8) {
	if p.lines[l]&^lineDirty == 0 {
		p.fenced = append(p.fenced, l)
	}
	p.lines[l] |= bit
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
		end := min(start+granule, p.cfg.Size)
		copy(p.durable[start:end], p.current[start:end])
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
	p.stats.SimulatedNs += loadNs
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
	p.stats.Flushes++
	if p.devCommitted != nil {
		// In-domain data was durable at store time: the clwb writes back
		// nothing (and there is no clwb for a dropped-flush fault to
		// drop).  Accounted as a cheap no-op — the waste DMC-X01 flags.
		p.stats.DomainFlushes++
		p.stats.SimulatedNs += loadNs
		return nil
	}
	first, last := addr/CachelineSize, (addr+size-1)/CachelineSize
	if p.sched != nil && p.sched.Fire(faultinj.DroppedFlush) {
		// The clwb is transiently dropped; Fence retries it, so the
		// sfence durability guarantee is unchanged — but until then the
		// lines stay dirty instead of staged (wider crash surface).
		for l := first; l <= last; l++ {
			p.mark(l, lineDropped)
		}
		p.stats.Injections++
		p.stats.SimulatedNs += flushNs
		p.sched.Record(faultinj.DroppedFlush, fmt.Sprintf("pool+%d", addr),
			fmt.Sprintf("clwb lines [%d,%d] dropped, retried at next fence", first, last))
		return nil
	}
	for l := first; l <= last; l++ {
		// A clean line is staged and accounted too: clwb of a clean line
		// is cheap on real hardware, but not free.
		p.mark(l, lineStaged)
		p.stats.LinesFlushed++
		p.stats.SimulatedNs += flushNs
	}
	return nil
}

// Fence makes all staged lines durable (sfence + drain semantics),
// draining them in ascending line order.  Dropped-flush lines are
// retried here (hardware re-issues the clwb at the drain), so the fence
// guarantee holds under fault injection.  Under CXL the fence is a
// global persist barrier: it additionally commits the device-side
// domain buffer, after which a device failure can no longer discard
// those writes.
func (p *Pool) Fence() {
	p.mu.Lock()
	defer p.mu.Unlock()
	slices.Sort(p.fenced)
	lines := p.drain[:0]
	for _, l := range p.fenced {
		f := p.lines[l]
		if f&lineDropped != 0 && f&lineDirty != 0 {
			f |= lineStaged
			p.stats.LinesFlushed++
			p.stats.SimulatedNs += flushNs
		}
		if f&lineStaged != 0 {
			lines = append(lines, l)
		}
		if f&linePending != 0 {
			start, end := p.lineBounds(l)
			copy(p.devCommitted[start:end], p.durable[start:end])
			p.stats.DomainCommits++
		}
		p.lines[l] = f &^ (lineStaged | lineDropped | linePending)
	}
	p.fenced = p.fenced[:0]
	p.drain = lines
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
	p.stats.Fences++
	p.stats.SimulatedNs += p.fenceNs
	if p.sched != nil && len(lines) > 0 && p.sched.Fire(faultinj.DelayedDrain) {
		// The drain lags: charge extra fence latency.  The log records
		// the lag in fence-latency multiples, not ns, so schedules stay
		// byte-comparable across contracts with different barrier costs.
		mult := int64(1 + p.sched.Intn(4))
		p.stats.SimulatedNs += mult * p.fenceNs
		p.stats.Injections++
		p.sched.Record(faultinj.DelayedDrain, "pool fence",
			fmt.Sprintf("drain of %d lines lagged %dx fence latency", len(lines), mult))
	}
}

// lineBounds returns the byte range of line l, clipped to the pool.
func (p *Pool) lineBounds(l int) (start, end int) {
	start = l * CachelineSize
	return start, min(start+CachelineSize, p.cfg.Size)
}

// writeBack copies one line into the durable image.  Caller holds mu.
func (p *Pool) writeBack(l int) {
	start, end := p.lineBounds(l)
	copy(p.durable[start:end], p.current[start:end])
	p.lines[l] &^= lineDirty
	p.stats.BytesWritten += uint64(end - start)
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
	// A domain pool's lines hold only pending bits, which are device
	// state; every other bit is host state and vanishes.
	if p.devCommitted == nil {
		p.clearLines()
	}
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
	}
	copy(p.current, p.durable)
	p.clearLines()
}

// clearLines drops every line's state bits.  Caller holds mu.
func (p *Pool) clearLines() {
	clear(p.lines)
	p.fenced = p.fenced[:0]
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
	for l, f := range p.lines {
		if f&lineDirty != 0 {
			p.writeBack(l)
		}
	}
	if p.devCommitted != nil {
		copy(p.devCommitted, p.durable)
	}
	p.clearLines()
}
