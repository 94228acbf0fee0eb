package trace_test

import (
	"runtime"
	"testing"
	"unsafe"

	"deepmc/internal/core"
	"deepmc/internal/dsa"
	"deepmc/internal/trace"
)

// TestCollectionAllocationBound guards the explorer against copying path
// prefixes: collecting every function of a generated app may allocate at
// most twice the bytes of the finished traces it returns.  Copying the
// prefix per block visit or per spliced callee variant allocates several
// times that, because the root function's continuations grow to the
// entry budget and would be copied at every call site.  It measures the
// process-wide allocation counter, so it must not run in parallel.
func TestCollectionAllocationBound(t *testing.T) {
	m := core.GenerateApp(core.AppSpec{Name: "alloc", Funcs: 50, CallDepth: 3, Seed: 21})
	a := dsa.Analyze(m, dsa.DefaultOptions())
	fns := m.FuncNames()

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	c := trace.NewCollector(a, trace.DefaultOptions())
	entries := 0
	for _, fn := range fns {
		for _, tr := range c.FunctionTraces(fn) {
			entries += len(tr.Entries)
		}
	}
	runtime.ReadMemStats(&after)

	traceBytes := uint64(entries) * uint64(unsafe.Sizeof(trace.Entry{}))
	if traceBytes == 0 {
		t.Fatal("no trace entries collected")
	}
	alloc := after.TotalAlloc - before.TotalAlloc
	ratio := float64(alloc) / float64(traceBytes)
	t.Logf("allocated %d bytes for %d entries (%d bytes): %.2fx", alloc, entries, traceBytes, ratio)
	if ratio > 2 {
		t.Errorf("collection allocated %.2fx the bytes of its finished traces, want at most 2x", ratio)
	}
}

// TestEntrySize pins the trace entry layout: a kind, a cell, one site
// pointer and a strand id.  Entries are the bulk of a cold check's
// allocation, so a field that grows them shows up here first.
func TestEntrySize(t *testing.T) {
	if n := unsafe.Sizeof(trace.Entry{}); n > 48 {
		t.Errorf("trace.Entry is %d bytes, want at most 48", n)
	}
}
