package dynamic

import (
	"hash/fnv"
	"math/bits"

	"deepmc/internal/ir"
)

// covBits is the edge-map size in bits.  64K edges keeps a Coverage at
// 8 KiB — cheap enough to allocate per execution — while staying large
// enough that the PIR corpus programs (hundreds of distinct sites ×
// strand ids) collide rarely.
const covBits = 1 << 16

// event-kind tags folded into the site hash, so a flush and a write at
// the same source line count as distinct coverage sites.
const (
	covWrite byte = iota + 1
	covRead
	covFlush
	covFence
	covStrand
)

// Coverage is an AFL-style edge bitmap over runtime persistency events:
// each event hashes its site (function, file, line, event kind, strand
// id) and the transition previous-site → current-site sets one bit.
// Because sites are content-hashed rather than interned in discovery
// order, bit indices are stable across executions and across genomes —
// a corpus-global Coverage accumulated over many runs is meaningful.
//
// The strand id is part of the site, so the same program point executed
// by a different strand is a different edge: schedule mutations that
// only move work between strands still produce coverage signal, which
// is what lets the fuzzer climb toward unexplored interleavings rather
// than only unexplored code.
//
// Coverage is not safe for concurrent use; the instrumented interpreter
// is single-threaded per execution, and merging into a shared global
// map is the caller's (single-threaded fuzz loop's) job.
type Coverage struct {
	bits [covBits / 64]uint64
	prev uint32
}

// NewCoverage returns an empty edge map.
func NewCoverage() *Coverage { return &Coverage{} }

// siteHash content-hashes one event site.  FNV-1a over the site's
// strings and scalars, not its pointer: deterministic across processes
// (no map iteration, no per-run interning).
func siteHash(at *ir.Site, kind byte, strand int64) uint32 {
	h := fnv.New32a()
	h.Write([]byte(at.Func))
	h.Write([]byte{0})
	h.Write([]byte(at.File))
	h.Write([]byte{0, kind,
		byte(at.Line), byte(at.Line >> 8), byte(at.Line >> 16),
		byte(strand), byte(strand >> 8), byte(strand >> 16)})
	return h.Sum32()
}

// hit records the edge from the previous event to this one.
func (c *Coverage) hit(at *ir.Site, kind byte, strand int64) {
	cur := siteHash(at, kind, strand)
	idx := (cur ^ (c.prev >> 1)) % covBits
	c.bits[idx/64] |= 1 << (idx % 64)
	c.prev = cur
}

// Count returns the number of distinct edges recorded.
func (c *Coverage) Count() int {
	n := 0
	for _, w := range c.bits {
		n += bits.OnesCount64(w)
	}
	return n
}

// NewEdges counts edges present in c but not in global.
func (c *Coverage) NewEdges(global *Coverage) int {
	n := 0
	for i, w := range c.bits {
		n += bits.OnesCount64(w &^ global.bits[i])
	}
	return n
}

// MergeInto folds c's edges into global.
func (c *Coverage) MergeInto(global *Coverage) {
	for i, w := range c.bits {
		global.bits[i] |= w
	}
}
