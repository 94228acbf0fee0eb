// Package mnemosyne is a Go port of the Mnemosyne lightweight persistent
// memory framework (Volos et al., ASPLOS'11) as the paper exercises it:
// a persistent region, a raw word log (phlog), and durable memory
// transactions implemented with redo logging.  Mnemosyne follows the
// epoch persistency model: writes within a transaction form an epoch
// whose log is persisted at the epoch boundary before the home locations
// are updated.
package mnemosyne

import (
	"fmt"
	"sync"

	"deepmc/internal/nvm"
	"deepmc/internal/pmem"
)

// Config configures a region.
type Config struct {
	NVM     nvm.Config
	Tracker pmem.Tracker
	// LogCapacity is the phlog size in entries (default 1<<16).
	LogCapacity int
	// BuggyNoCommitFence drops both commit-path fences (the epoch
	// boundary after the redo log and the post-truncate barrier), so
	// flushed lines only ever stage and nothing reaches durable media
	// before a crash — a planted deep persistency bug: every
	// acknowledged transaction is lost, which the soak engine's
	// crash+recover audit must witness.
	BuggyNoCommitFence bool
}

// Region is a persistent memory region with a word log.
type Region struct {
	cfg Config
	nv  *nvm.Pool

	mu       sync.Mutex
	tailAddr int // durable log-truncation pointer (applied txs below it)
	logBase  int
	logCap   int
	logHead  int // entry index of the next append
	txSeq    uint64
}

// Log records are 32 bytes: tagged word (addr<<3 | kind), value, txid,
// seq.  kind 0 = write record, kind 1 = commit record (value = record
// count of the transaction).
const (
	logEntrySize  = 32
	recKindWrite  = 0
	recKindCommit = 1
)

// OpenRegion creates a region with its phlog.
func OpenRegion(cfg Config) (*Region, error) {
	if cfg.LogCapacity <= 0 {
		cfg.LogCapacity = 1 << 16
	}
	r := &Region{cfg: cfg, nv: nvm.NewPool(cfg.NVM), logCap: cfg.LogCapacity}
	tail, err := r.nv.Alloc(8)
	if err != nil {
		return nil, err
	}
	r.tailAddr = tail
	base, err := r.nv.Alloc(cfg.LogCapacity * logEntrySize)
	if err != nil {
		return nil, err
	}
	r.logBase = base
	return r, nil
}

// NVM exposes the underlying device.
func (r *Region) NVM() *nvm.Pool { return r.nv }

// Alloc reserves persistent words.
func (r *Region) Alloc(size int) (int, error) { return r.nv.Alloc(size) }

// Load64 reads a persistent word.
func (r *Region) Load64(thread int64, addr int) (uint64, error) {
	// Reads are not instrumented (§4.4: DeepMC tracks NVM writes only).
	return r.nv.Load64(addr)
}

// logAppend writes one redo record into the phlog and flushes it.  The
// phlog is the durability point of a Mnemosyne transaction.  Caller
// holds r.mu.
func (r *Region) logAppend(kind int, addr int, v, txid uint64) error {
	slot := r.logHead % r.logCap
	r.logHead++
	seq := uint64(r.logHead)
	ea := r.logBase + slot*logEntrySize
	if err := r.nv.Store64(ea, uint64(addr)<<3|uint64(kind)); err != nil {
		return err
	}
	if err := r.nv.Store64(ea+8, v); err != nil {
		return err
	}
	if err := r.nv.Store64(ea+16, txid); err != nil {
		return err
	}
	if err := r.nv.Store64(ea+24, seq); err != nil {
		return err
	}
	return r.nv.Flush(ea, logEntrySize)
}

// wset is one pending transactional write.
type wset struct {
	addr int
	val  uint64
}

// Tx is a durable memory transaction (MNEMOSYNE_ATOMIC block).
type Tx struct {
	r      *Region
	thread int64
	writes []wset
	closed bool
}

// Begin opens a durable transaction for a client thread.
func (r *Region) Begin(thread int64) *Tx {
	return &Tx{r: r, thread: thread}
}

// Store64 buffers a transactional word write (redo logging: the home
// location is untouched until commit).  A word that already holds v
// logs nothing.
func (tx *Tx) Store64(addr int, v uint64) error {
	if tx.closed {
		return fmt.Errorf("mnemosyne: tx closed")
	}
	if cur, err := tx.r.nv.Load64(addr); err == nil && cur == v {
		return nil
	}
	tx.writes = append(tx.writes, wset{addr: addr, val: v})
	if t := tx.r.cfg.Tracker; t != nil {
		t.Write(tx.thread, uint64(addr), "m_txstore")
	}
	return nil
}

// Commit persists the redo log with a commit record (epoch boundary),
// then applies the writes to their home locations, persists those, and
// truncates the log.  A crash after the first fence is repaired by
// Recover replaying the committed records.
func (tx *Tx) Commit() error {
	if tx.closed {
		return fmt.Errorf("mnemosyne: tx closed")
	}
	tx.closed = true
	if len(tx.writes) == 0 {
		return nil
	}
	r := tx.r
	r.mu.Lock()
	r.txSeq++
	txid := r.txSeq
	for _, w := range tx.writes {
		if err := r.logAppend(recKindWrite, w.addr, w.val, txid); err != nil {
			r.mu.Unlock()
			return err
		}
	}
	if err := r.logAppend(recKindCommit, 0, uint64(len(tx.writes)), txid); err != nil {
		r.mu.Unlock()
		return err
	}
	head := r.logHead
	r.mu.Unlock()
	// Epoch boundary: the log (including the commit record) must be
	// durable before home updates.
	if !r.cfg.BuggyNoCommitFence {
		r.nv.Fence()
		if t := r.cfg.Tracker; t != nil {
			t.Fence(tx.thread)
		}
	}
	for _, w := range tx.writes {
		if err := r.nv.Store64(w.addr, w.val); err != nil {
			return err
		}
		if err := r.nv.Flush(w.addr, 8); err != nil {
			return err
		}
	}
	// Truncate: home locations are about to be durable together with the
	// new tail, so recovery will not replay this transaction again.
	if err := r.nv.Store64(r.tailAddr, uint64(head)); err != nil {
		return err
	}
	if err := r.nv.Flush(r.tailAddr, 8); err != nil {
		return err
	}
	if !r.cfg.BuggyNoCommitFence {
		r.nv.Fence()
	}
	return nil
}

// logRec is one decoded log record.
type logRec struct {
	kind int
	addr int
	val  uint64
	txid uint64
	seq  uint64
}

// Recover replays committed-but-unapplied transactions from the phlog
// after a crash (Mnemosyne's recovery pass), returning how many
// transactions were replayed.
func (r *Region) Recover() (int, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	tail, err := r.nv.Load64(r.tailAddr)
	if err != nil {
		return 0, err
	}
	// Decode live records (seq > tail) from every slot.
	var live []logRec
	maxSeq := tail
	for slot := 0; slot < r.logCap; slot++ {
		ea := r.logBase + slot*logEntrySize
		tagged, err := r.nv.Load64(ea)
		if err != nil {
			return 0, err
		}
		val, _ := r.nv.Load64(ea + 8)
		txid, _ := r.nv.Load64(ea + 16)
		seq, _ := r.nv.Load64(ea + 24)
		if seq <= tail || seq == 0 {
			continue
		}
		live = append(live, logRec{
			kind: int(tagged & 7), addr: int(tagged >> 3),
			val: val, txid: txid, seq: seq,
		})
		if seq > maxSeq {
			maxSeq = seq
		}
	}
	// Group by transaction; a group replays only if its commit record is
	// present and every write record arrived.
	byTx := make(map[uint64][]logRec)
	committed := make(map[uint64]uint64)
	for _, rec := range live {
		if rec.kind == recKindCommit {
			committed[rec.txid] = rec.val
		} else {
			byTx[rec.txid] = append(byTx[rec.txid], rec)
		}
	}
	replayed := 0
	for txid, want := range committed {
		recs := byTx[txid]
		if uint64(len(recs)) != want {
			continue // torn transaction: some records overwritten or lost
		}
		for _, rec := range recs {
			if err := r.nv.Store64(rec.addr, rec.val); err != nil {
				return replayed, err
			}
			if err := r.nv.Flush(rec.addr, 8); err != nil {
				return replayed, err
			}
		}
		replayed++
		if txid > r.txSeq {
			r.txSeq = txid
		}
	}
	// Truncate everything we have applied and restore in-memory cursors.
	r.logHead = int(maxSeq)
	if err := r.nv.Store64(r.tailAddr, maxSeq); err != nil {
		return replayed, err
	}
	if err := r.nv.Flush(r.tailAddr, 8); err != nil {
		return replayed, err
	}
	r.nv.Fence()
	return replayed, nil
}

// Abort discards buffered writes (nothing reached home locations).
func (tx *Tx) Abort() {
	tx.closed = true
	tx.writes = nil
}
