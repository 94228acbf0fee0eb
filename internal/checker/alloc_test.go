package checker_test

import (
	"context"
	"runtime"
	"testing"
	"unsafe"

	"deepmc/internal/checker"
	"deepmc/internal/core"
	"deepmc/internal/trace"
)

// TestCheckAllocationBound guards the chain representation of collected
// traces: a cold module check must allocate less than one copy of every
// function's trace entries.  Filling each finished trace's Entries during
// collection, as a check that copied every trace would, allocates exactly
// that much before the scan starts.  It must also allocate less than the
// 8,011,248 bytes the same check took when every call site held a flat
// translated copy of each callee variant.  It measures the process-wide
// allocation counter, so it must not run in parallel.
func TestCheckAllocationBound(t *testing.T) {
	m := core.GenerateApp(core.AppSpec{Name: "alloc", Funcs: 194, CallDepth: 3, Seed: 21})
	ck := checker.New(m, checker.DefaultOptions(checker.Strict))

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	ck.CheckModuleParallelCtx(context.Background(), 1)
	runtime.ReadMemStats(&after)

	entries := 0
	for _, fn := range m.FuncNames() {
		for _, tr := range ck.Collector.FunctionTraces(fn) {
			entries += len(tr.Entries)
		}
	}
	traceBytes := uint64(entries) * uint64(unsafe.Sizeof(trace.Entry{}))
	if traceBytes == 0 {
		t.Fatal("no trace entries collected")
	}
	alloc := after.TotalAlloc - before.TotalAlloc
	ratio := float64(alloc) / float64(traceBytes)
	t.Logf("check allocated %d bytes; its traces hold %d entries (%d bytes): %.2fx", alloc, entries, traceBytes, ratio)
	if alloc >= traceBytes {
		t.Errorf("check allocated %.2fx the bytes of its traces' entries, want less than 1x", ratio)
	}
	const flatCopies = 8_011_248
	if alloc >= flatCopies {
		t.Errorf("check allocated %d bytes, want less than the %d the flat callee copies took", alloc, flatCopies)
	}
}
