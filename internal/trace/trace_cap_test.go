package trace

import (
	"fmt"
	"strings"
	"testing"

	"deepmc/internal/dsa"
	"deepmc/internal/ir"
)

// bigCallChainSrc builds a module whose root splices many callee traces,
// exercising the MaxTraceEntries budget.
func bigCallChainSrc(callees int) string {
	var b strings.Builder
	b.WriteString("module big\n\ntype o struct {\n\ta: int\n}\n\n")
	for i := 0; i < callees; i++ {
		fmt.Fprintf(&b, `
func leaf%d(p: *o) {
	store %%p.a, %d
	flush %%p.a
	fence
	ret
}
`, i, i)
	}
	b.WriteString("\nfunc root() {\n")
	for i := 0; i < callees; i++ {
		fmt.Fprintf(&b, "\t%%p%d = palloc o\n\tcall leaf%d(%%p%d)\n", i, i, i)
	}
	b.WriteString("\tret\n}\n")
	return b.String()
}

func TestMaxTraceEntriesCap(t *testing.T) {
	m := ir.MustParse(bigCallChainSrc(50)) // 150 entries uncapped
	a := dsa.Analyze(m, dsa.DefaultOptions())
	opts := DefaultOptions()
	opts.MaxTraceEntries = 30
	c := NewCollector(a, opts)
	ts := c.FunctionTraces("root")
	if len(ts) == 0 {
		t.Fatal("no traces")
	}
	for _, tr := range ts {
		if len(tr.Entries) > 30 {
			t.Errorf("trace has %d entries, cap 30", len(tr.Entries))
		}
	}
}

func TestUncappedKeepsAllEntries(t *testing.T) {
	m := ir.MustParse(bigCallChainSrc(20)) // 60 entries
	a := dsa.Analyze(m, dsa.DefaultOptions())
	c := NewCollector(a, DefaultOptions())
	ts := c.FunctionTraces("root")
	if len(ts) != 1 {
		t.Fatalf("traces = %d", len(ts))
	}
	if got := len(ts[0].Entries); got != 60 {
		t.Errorf("entries = %d, want 60 (3 per callee)", got)
	}
}

func TestMemoizationReturnsSameTraces(t *testing.T) {
	m := ir.MustParse(bigCallChainSrc(5))
	a := dsa.Analyze(m, dsa.DefaultOptions())
	c := NewCollector(a, DefaultOptions())
	t1 := c.FunctionTraces("root")
	t2 := c.FunctionTraces("root")
	if len(t1) != len(t2) {
		t.Fatal("memoized call returned different trace count")
	}
	for i := range t1 {
		if t1[i] != t2[i] {
			t.Error("memoized call returned different trace objects")
		}
	}
}

// TestBudgetBoundary pins the entry budget at its exact boundary: a run
// of non-call entries that just fits is kept whole and untruncated, one
// entry over drops the excess and latches truncation, and a caller whose
// only entries are a truncated callee's inherits the flag even though
// the splice itself fits.
func TestBudgetBoundary(t *testing.T) {
	const stores = 12
	var b strings.Builder
	b.WriteString("module edge\n\ntype o struct {\n\ta: int\n}\n\nfunc fill() {\n\t%p = palloc o\n")
	for i := 0; i < stores; i++ {
		fmt.Fprintf(&b, "\tstore %%p.a, %d\n", i)
	}
	b.WriteString("\tret\n}\n\nfunc wrap() {\n\tcall fill()\n\tret\n}\n")
	a := dsa.Analyze(ir.MustParse(b.String()), dsa.DefaultOptions())
	for _, tc := range []struct {
		budget, want int
		truncated    bool
	}{
		{stores + 1, stores, false},
		{stores, stores, false},
		{stores - 1, stores - 1, true},
	} {
		opts := DefaultOptions()
		opts.MaxTraceEntries = tc.budget
		c := NewCollector(a, opts)
		for _, fn := range []string{"fill", "wrap"} {
			ts := c.FunctionTraces(fn)
			if len(ts) != 1 {
				t.Fatalf("budget %d: %s has %d traces, want 1", tc.budget, fn, len(ts))
			}
			if got := len(ts[0].Entries); got != tc.want {
				t.Errorf("budget %d: %s trace has %d entries, want %d", tc.budget, fn, got, tc.want)
			}
			if got := c.Truncated(fn); got != tc.truncated {
				t.Errorf("budget %d: Truncated(%s) = %v, want %v", tc.budget, fn, got, tc.truncated)
			}
		}
	}
}
