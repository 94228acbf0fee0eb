// Package pmem hosts the Go ports of the four NVM programming frameworks
// the paper studies — PMDK, PMFS, NVM-Direct and Mnemosyne — each in its
// own subpackage, all built over the internal/nvm simulator.
//
// The ports serve two experimental roles:
//
//   - Figure 12: real key-value/database workloads run over them with and
//     without DeepMC's runtime tracking, measuring throughput overhead.
//     Every framework therefore accepts an optional Tracker whose methods
//     are invoked on each persistent access, exactly where the paper's
//     instrumenter would inject runtime-library calls.
//   - §5.1's "up to 43%" claim: each framework exposes Buggy* knobs that
//     re-introduce the performance bugs DeepMC found (redundant flushes,
//     whole-object write-backs, empty durable transactions), so benches
//     can compare buggy vs. fixed builds.
package pmem

import "deepmc/internal/dynamic"

// Tracker observes persistent-memory accesses at runtime.  A nil Tracker
// means uninstrumented execution (the Figure 12 baseline).
type Tracker interface {
	// Write records a persistent store by a client thread.
	Write(thread int64, addr uint64, fn string)
	// Read records a persistent load.
	Read(thread int64, addr uint64, fn string)
	// Fence records a persist barrier issued by a thread.
	Fence(thread int64)
	// Acquire/Release record lock operations for happens-before edges.
	Acquire(thread int64, lock any)
	Release(thread int64, lock any)
}

// CheckerTracker adapts the dynamic runtime checker to the Tracker
// interface, treating each client thread as a strand.  An access's
// site names its port function in place of a file, at line 0
// (Checker.FuncSite): the ports have no module to take sites from, and
// their reports have always read that way.
type CheckerTracker struct {
	C *dynamic.Checker
}

// begin opens a thread's strand at its first event.  A thread the
// checker has never seen a strand event from is at clock 0, which it
// orders before everything (its reading of code outside any strand),
// so a thread's races before its first Release would go unseen.  A
// known thread takes no lock.
func (t *CheckerTracker) begin(thread int64) { t.C.StrandBeginOnce(thread) }

// NewCheckerTracker wraps a fresh dynamic checker.
func NewCheckerTracker() *CheckerTracker {
	return &CheckerTracker{C: dynamic.NewChecker()}
}

// Write forwards a store to the checker.
func (t *CheckerTracker) Write(thread int64, addr uint64, fn string) {
	t.begin(thread)
	t.C.Write(thread, addr, true, t.C.FuncSite(thread, fn))
}

// Read forwards a load to the checker.
func (t *CheckerTracker) Read(thread int64, addr uint64, fn string) {
	t.begin(thread)
	t.C.Read(thread, addr, true, t.C.FuncSite(thread, fn))
}

// Fence forwards a persist barrier.
func (t *CheckerTracker) Fence(thread int64) { t.C.GlobalFence() }

// Acquire forwards a lock acquisition.
func (t *CheckerTracker) Acquire(thread int64, lock any) {
	t.begin(thread)
	t.C.Acquire(thread, lock)
}

// Release forwards a lock release.
func (t *CheckerTracker) Release(thread int64, lock any) {
	t.begin(thread)
	t.C.Release(thread, lock)
}
