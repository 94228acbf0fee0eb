package nvm

import (
	"encoding/binary"

	"deepmc/internal/interp"
	"deepmc/internal/ir"
)

// This file runs PIR programs on a pool, so the pool's cost model
// prices a corpus program and its durable image holds the program's
// values.  Only persistent objects touch the pool.  The pricing of
// transactions below is part of the §5.1 method: a change to it moves
// the rows and is a change of experiment.

// logChunk is the undo log's first allocation, in bytes.
const logChunk = 4096

// RunPIR interprets entry in m, issuing each persistent-object event as
// pool operations on p, and returns the first pool error, else the
// interpreter's.  A pool error stops the pool operations but not the
// interpreter.
func RunPIR(p *Pool, m *ir.Module, entry string) error {
	b := &bridge{pool: p, addrs: make(map[*interp.Object]int)}
	_, err := interp.New(m, b).Run(entry)
	if b.err != nil {
		return b.err
	}
	return err
}

// bridge is the interp.Hooks value behind RunPIR.
//
//   - A persistent object gets a Pool.Alloc address at its first event.
//   - A store writes the object's slot values, little-endian (a
//     reference slot writes its integer part, 0).  Loads, flushes and
//     fences map one to one.
//   - txadd is PMDK's TX_ADD: it loads the range's pre-image, stores it
//     into the bridge's undo log, flushes it and fences.  The outermost
//     txend flushes every range added since its txbegin, then fences
//     once if there was any.
//   - txbegin, epoch and strand markers issue nothing: PIR writes its
//     own barriers.
type bridge struct {
	interp.NopHooks
	pool  *Pool
	addrs map[*interp.Object]int
	err   error // the first pool error; nothing is issued after it
	buf   []byte

	depth int    // open transactions
	added []span // ranges txadd registered since the outermost txbegin
	// The undo log restarts at every outermost txbegin.  An entry that
	// does not fit moves it to a fresh allocation of twice the size.
	log, logCap, logOff int
}

type span struct{ addr, size int }

// fail keeps the first pool error and reports whether err is one.
func (b *bridge) fail(err error) bool {
	if err != nil && b.err == nil {
		b.err = err
	}
	return err != nil
}

// addr returns obj's pool address, allocating it at the object's first
// event.  ok is false for a volatile object, or once the pool failed.
func (b *bridge) addr(obj *interp.Object) (a int, ok bool) {
	if !obj.Persistent || b.err != nil {
		return 0, false
	}
	a, ok = b.addrs[obj]
	if !ok {
		var err error
		if a, err = b.pool.Alloc(len(obj.Slots) * 8); b.fail(err) {
			return 0, false
		}
		b.addrs[obj] = a
	}
	return a, true
}

func (b *bridge) OnWrite(obj *interp.Object, off, size int, _ *ir.Site) {
	a, ok := b.addr(obj)
	if !ok {
		return
	}
	b.buf = b.buf[:0]
	for s := off / 8; s*8 < off+size; s++ {
		b.buf = binary.LittleEndian.AppendUint64(b.buf, uint64(obj.Slots[s].I))
	}
	lo := off % 8
	b.fail(b.pool.Store(a+off, b.buf[lo:lo+size]))
}

func (b *bridge) OnRead(obj *interp.Object, off, size int, _ *ir.Site) {
	if a, ok := b.addr(obj); ok {
		_, err := b.pool.Load(a+off, size)
		b.fail(err)
	}
}

func (b *bridge) OnFlush(obj *interp.Object, off, size int, _ *ir.Site) {
	if a, ok := b.addr(obj); ok {
		b.fail(b.pool.Flush(a+off, size))
	}
}

func (b *bridge) OnFence(*ir.Site) {
	if b.err == nil {
		b.pool.Fence()
	}
}

func (b *bridge) OnTxBegin(*ir.Site) {
	if b.depth == 0 {
		b.logOff = 0
	}
	b.depth++
}

func (b *bridge) OnTxAdd(obj *interp.Object, off, size int, _ *ir.Site) {
	a, ok := b.addr(obj)
	if !ok {
		return
	}
	pre, err := b.pool.Load(a+off, size)
	if b.fail(err) {
		return
	}
	need := (size + 7) &^ 7
	if b.logOff+need > b.logCap {
		c := max(2*b.logCap, need, logChunk)
		if b.log, err = b.pool.Alloc(c); b.fail(err) {
			return
		}
		b.logCap, b.logOff = c, 0
	}
	at := b.log + b.logOff
	b.logOff += need
	if b.fail(b.pool.Store(at, pre)) || b.fail(b.pool.Flush(at, size)) {
		return
	}
	b.pool.Fence()
	b.added = append(b.added, span{a + off, size})
}

func (b *bridge) OnTxEnd(*ir.Site) {
	if b.depth > 0 {
		b.depth--
	}
	if b.depth > 0 || b.err != nil {
		return
	}
	for _, s := range b.added {
		if b.fail(b.pool.Flush(s.addr, s.size)) {
			return
		}
	}
	if len(b.added) > 0 {
		b.pool.Fence()
	}
	b.added = b.added[:0]
}
