package ir_test

import (
	"runtime"
	"testing"

	"deepmc/internal/core"
	"deepmc/internal/ir"
)

// TestParseAllocationBound holds Parse to a quarter of the bytes the
// slice-of-tokens parser allocated on the printed 335-function app
// (20,331,931 bytes in 44,893 allocations, go1.24 on linux/amd64).  The
// pull lexer keeps no token array and each block's instructions are
// stored once, so the module itself is most of what is left.
func TestParseAllocationBound(t *testing.T) {
	const before = 20_331_931
	src := ir.Print(core.GenerateApp(core.AppSpec{Name: "app335", Funcs: 335, CallDepth: 3, Seed: 44}))
	var least uint64
	for i := 0; i < 3; i++ {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		if _, err := ir.Parse(src); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&m1)
		if b := m1.TotalAlloc - m0.TotalAlloc; i == 0 || b < least {
			least = b
		}
	}
	if least > before/4 {
		t.Errorf("Parse allocated %d bytes, want at most %d (a quarter of %d)", least, before/4, before)
	}
}
