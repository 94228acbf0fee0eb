// Package pmdk is a Go port of the core of Intel's Persistent Memory
// Development Kit as the paper exercises it: a persistent object pool,
// undo-log transactions (TX_BEGIN / TX_ADD / TX_COMMIT), and
// pmemobj_persist.  PMDK implements the strict persistency model: every
// persist is a flush followed by a barrier.
package pmdk

import (
	"fmt"
	"sync"

	"deepmc/internal/nvm"
	"deepmc/internal/pmem"
)

// Config configures a pool.
type Config struct {
	NVM nvm.Config
	// Tracker instruments persistent accesses (nil = uninstrumented).
	Tracker pmem.Tracker
}

// Undo-log region layout: a fixed header per transaction slot holds
// state + entry count; entries follow as (addr, size, data...) records.
// One slot per pool keeps the port simple (PMDK has one log per thread
// lane); transactions serialize on it.
const (
	undoStateEmpty  = 0
	undoStateActive = 1
	undoLogBytes    = 1 << 16
)

// Pool is a persistent object pool.
type Pool struct {
	cfg Config
	nv  *nvm.Pool

	mu       sync.Mutex
	undoBase int // persistent undo-log region
}

// Open creates a pool over a fresh simulated NVM device.
func Open(cfg Config) *Pool {
	p := &Pool{cfg: cfg, nv: nvm.NewPool(cfg.NVM)}
	base, err := p.nv.Alloc(undoLogBytes)
	if err != nil {
		panic(err) // fresh pool with default sizing cannot fail
	}
	p.undoBase = base
	return p
}

// Recover rolls back a transaction that was active when the pool
// crashed: every undo pre-image in the persistent log is written back
// and persisted, then the log is marked empty (pmemobj's on-open
// recovery).  It returns whether a rollback happened.
func (p *Pool) Recover() (bool, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	state, err := p.nv.Load64(p.undoBase)
	if err != nil {
		return false, err
	}
	if state != undoStateActive {
		return false, nil
	}
	count, err := p.nv.Load64(p.undoBase + 8)
	if err != nil {
		return false, err
	}
	off := p.undoBase + 16
	for i := uint64(0); i < count; i++ {
		addr, err := p.nv.Load64(off)
		if err != nil {
			return true, err
		}
		size, err := p.nv.Load64(off + 8)
		if err != nil {
			return true, err
		}
		old, err := p.nv.Load(off+16, int(size))
		if err != nil {
			return true, err
		}
		if err := p.nv.Store(int(addr), old); err != nil {
			return true, err
		}
		if err := p.nv.Flush(int(addr), int(size)); err != nil {
			return true, err
		}
		off += 16 + alignUp(int(size))
	}
	if err := p.nv.Store64(p.undoBase, undoStateEmpty); err != nil {
		return true, err
	}
	if err := p.nv.Flush(p.undoBase, 8); err != nil {
		return true, err
	}
	p.nv.Fence()
	return true, nil
}

func alignUp(n int) int { return (n + 7) &^ 7 }

// NVM exposes the underlying device (stats, crash injection in tests).
func (p *Pool) NVM() *nvm.Pool { return p.nv }

// AllocObject reserves a persistent object of the given size and returns
// its address.
func (p *Pool) AllocObject(size int) (int, error) {
	return p.nv.Alloc(size)
}

// Store64 writes a word without persisting it (callers follow with
// Persist, or perform the store inside a transaction).
func (p *Pool) Store64(thread int64, addr int, v uint64) error {
	if err := p.nv.Store64(addr, v); err != nil {
		return err
	}
	p.track(thread, addr, "pmemobj_store")
	return nil
}

// Load64 reads a word.
func (p *Pool) Load64(thread int64, addr int) (uint64, error) {
	// Reads are not instrumented: DeepMC only tracks writes to NVM in
	// annotated regions (§4.4), which is what keeps its overhead low.
	return p.nv.Load64(addr)
}

// Store writes bytes without persisting them.
func (p *Pool) Store(thread int64, addr int, data []byte) error {
	if err := p.nv.Store(addr, data); err != nil {
		return err
	}
	p.track(thread, addr, "pmemobj_store")
	return nil
}

// Load reads bytes.
func (p *Pool) Load(thread int64, addr, size int) ([]byte, error) {
	return p.nv.Load(addr, size)
}

func (p *Pool) track(thread int64, addr int, fn string) {
	if t := p.cfg.Tracker; t != nil {
		t.Write(thread, uint64(addr), fn)
	}
}

// Persist flushes the range and issues a persist barrier
// (pmemobj_persist).
func (p *Pool) Persist(thread int64, addr, size int) error {
	if err := p.nv.Flush(addr, size); err != nil {
		return err
	}
	p.nv.Fence()
	if t := p.cfg.Tracker; t != nil {
		t.Fence(thread)
	}
	return nil
}

// undoRec is one TX_ADD snapshot.
type undoRec struct {
	addr int
	old  []byte
}

// Tx is an undo-log transaction (TX_BEGIN..TX_COMMIT).
type Tx struct {
	p        *Pool
	thread   int64
	undo     []undoRec
	dirty    []undoRec // ranges to persist at commit (addr + size as len)
	writes   int
	closed   bool
	logOff   int // next free byte in the persistent undo region
	logCount int
}

// Begin opens a transaction for a client thread.
func (p *Pool) Begin(thread int64) *Tx {
	return &Tx{p: p, thread: thread}
}

// Add undo-logs [addr, addr+size): the old contents are snapshotted
// into the pool's persistent undo region and made durable before the
// data may be mutated, so Recover can roll the transaction back after a
// crash (TX_ADD).
func (tx *Tx) Add(addr, size int) error {
	if tx.closed {
		return fmt.Errorf("pmdk: tx closed")
	}
	old, err := tx.p.nv.Load(addr, size)
	if err != nil {
		return err
	}
	p := tx.p
	p.mu.Lock()
	if tx.logOff == 0 {
		// First entry of this transaction: claim the log slot.
		if err := p.nv.Store64(p.undoBase, undoStateActive); err != nil {
			p.mu.Unlock()
			return err
		}
		tx.logOff = p.undoBase + 16
	}
	need := 16 + alignUp(size)
	if tx.logOff+need > p.undoBase+undoLogBytes {
		p.mu.Unlock()
		return fmt.Errorf("pmdk: undo log full")
	}
	if err := p.nv.Store64(tx.logOff, uint64(addr)); err != nil {
		p.mu.Unlock()
		return err
	}
	if err := p.nv.Store64(tx.logOff+8, uint64(size)); err != nil {
		p.mu.Unlock()
		return err
	}
	if err := p.nv.Store(tx.logOff+16, old); err != nil {
		p.mu.Unlock()
		return err
	}
	if err := p.nv.Flush(tx.logOff, need); err != nil {
		p.mu.Unlock()
		return err
	}
	tx.logOff += need
	tx.logCount++
	if err := p.nv.Store64(p.undoBase+8, uint64(tx.logCount)); err != nil {
		p.mu.Unlock()
		return err
	}
	if err := p.nv.Flush(p.undoBase, 16); err != nil {
		p.mu.Unlock()
		return err
	}
	p.mu.Unlock()
	p.nv.Fence()
	tx.undo = append(tx.undo, undoRec{addr: addr, old: old})
	tx.dirty = append(tx.dirty, undoRec{addr: addr, old: make([]byte, size)})
	return nil
}

// Store64 writes a word inside the transaction.
func (tx *Tx) Store64(addr int, v uint64) error {
	if tx.closed {
		return fmt.Errorf("pmdk: tx closed")
	}
	if err := tx.p.nv.Store64(addr, v); err != nil {
		return err
	}
	tx.p.track(tx.thread, addr, "tx_store")
	tx.writes++
	return nil
}

// Store writes bytes inside the transaction.
func (tx *Tx) Store(addr int, data []byte) error {
	if tx.closed {
		return fmt.Errorf("pmdk: tx closed")
	}
	if err := tx.p.nv.Store(addr, data); err != nil {
		return err
	}
	tx.p.track(tx.thread, addr, "tx_store")
	tx.writes++
	return nil
}

// Commit persists every logged range and retires the undo log
// (TX_COMMIT).
func (tx *Tx) Commit() error {
	if tx.closed {
		return fmt.Errorf("pmdk: tx closed")
	}
	tx.closed = true
	if tx.writes == 0 && len(tx.dirty) == 0 {
		// A read-only transaction skips commit persistence (the fix of
		// the Figure 7 bug).
		return nil
	}
	for _, d := range tx.dirty {
		if err := tx.p.nv.Flush(d.addr, len(d.old)); err != nil {
			return err
		}
	}
	tx.p.nv.Fence()
	if t := tx.p.cfg.Tracker; t != nil {
		t.Fence(tx.thread)
	}
	return tx.retireLog()
}

// retireLog marks the persistent undo slot empty after the transaction's
// effects are durable.
func (tx *Tx) retireLog() error {
	if tx.logCount == 0 {
		return nil
	}
	p := tx.p
	if err := p.nv.Store64(p.undoBase, undoStateEmpty); err != nil {
		return err
	}
	if err := p.nv.Flush(p.undoBase, 8); err != nil {
		return err
	}
	p.nv.Fence()
	return nil
}

// Abort rolls every logged range back to its snapshot and persists the
// restoration.
func (tx *Tx) Abort() error {
	if tx.closed {
		return fmt.Errorf("pmdk: tx closed")
	}
	tx.closed = true
	for i := len(tx.undo) - 1; i >= 0; i-- {
		u := tx.undo[i]
		if err := tx.p.nv.Store(u.addr, u.old); err != nil {
			return err
		}
		if err := tx.p.nv.Flush(u.addr, len(u.old)); err != nil {
			return err
		}
	}
	tx.p.nv.Fence()
	return tx.retireLog()
}
