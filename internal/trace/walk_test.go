package trace_test

import (
	"fmt"
	"runtime"
	"slices"
	"testing"

	"deepmc/internal/core"
	"deepmc/internal/dsa"
	"deepmc/internal/trace"
)

// recorder is a Consumer whose state is the trace prefix itself: at each
// End it holds exactly the entries Walk made it see for that trace.  It
// counts the entries it consumes.
type recorder struct {
	cur      []trace.Entry
	saved    [][]trace.Entry
	ended    [][]trace.Entry
	consumed int
}

func (r *recorder) Reset()           { r.cur = r.cur[:0] }
func (r *recorder) Restore(slot int) { r.cur = append(r.cur[:0], r.saved[slot]...) }
func (r *recorder) Consume(run []trace.Entry) {
	r.consumed += len(run)
	r.cur = append(r.cur, run...)
}
func (r *recorder) Save(slot int) {
	for len(r.saved) <= slot {
		r.saved = append(r.saved, nil)
	}
	r.saved[slot] = append(r.saved[slot][:0], r.cur...)
}
func (r *recorder) End() { r.ended = append(r.ended, slices.Clone(r.cur)) }

// runsOf reads a trace's entries without filling it.
func runsOf(t *trace.Trace) []trace.Entry {
	var out []trace.Entry
	t.Runs(func(run []trace.Entry) bool {
		out = append(out, run...)
		return true
	})
	return out
}

// walkApp is the generated app the shared walk and the collection bound
// are measured on.
var walkApp = core.AppSpec{Name: "walk", Funcs: 194, CallDepth: 3, Seed: 21}

// TestWalkConsumesEachNodeOnce drives Walk over every root function of a
// generated app.  Each trace must end holding exactly its own entries,
// and the entries consumed must be exactly those of the distinct chain
// nodes: with every trace complete, that means each node was consumed
// once.  Sharing must cut the entries read to a quarter of the root
// traces' summed length or less.
func TestWalkConsumesEachNodeOnce(t *testing.T) {
	m := core.GenerateApp(walkApp)
	a := dsa.Analyze(m, dsa.DefaultOptions())
	c := trace.NewCollector(a, trace.DefaultOptions())
	var consumed, distinct, total, nodes int
	for _, f := range a.CG.Roots() {
		ts := c.Collect(f.Name)
		r := &recorder{}
		trace.Walk(ts, r)
		if len(r.ended) != len(ts) {
			t.Fatalf("%s: %d traces ended, want %d", f.Name, len(r.ended), len(ts))
		}
		for i, tr := range ts {
			want := runsOf(tr)
			if !slices.Equal(r.ended[i], want) {
				t.Fatalf("%s: trace %d ended with %d entries that differ from its own %d", f.Name, i, len(r.ended[i]), len(want))
			}
			total += len(want)
		}
		n, e := trace.ChainNodes(ts)
		nodes += n
		distinct += e
		consumed += r.consumed
	}
	t.Logf("consumed %d of %d root-trace entries (%d chain nodes holding %d)", consumed, total, nodes, distinct)
	if consumed != distinct {
		t.Errorf("consumed %d entries, but the distinct chain nodes hold %d: some node was consumed more than once", consumed, distinct)
	}
	if 4*consumed > total {
		t.Errorf("consumed %d of %d root-trace entries, want at most a quarter", consumed, total)
	}
}

// TestWalkEntriesOnlyTraces checks that a trace built with Entries and
// no chain is consumed whole from the empty prefix, between chain-backed
// traces that share a prefix.
func TestWalkEntriesOnlyTraces(t *testing.T) {
	m := core.GenerateApp(core.AppSpec{Name: "mixed", Funcs: 30, CallDepth: 3, Seed: 1})
	a := dsa.Analyze(m, dsa.DefaultOptions())
	c := trace.NewCollector(a, trace.DefaultOptions())
	var chained []*trace.Trace
	for _, f := range a.CG.Roots() {
		if ts := c.Collect(f.Name); len(ts) > len(chained) {
			chained = ts
		}
	}
	if len(chained) < 2 {
		t.Fatal("no root with two traces")
	}
	flat := &trace.Trace{Func: "flat", Entries: runsOf(chained[1])}
	ts := []*trace.Trace{chained[0], flat, &trace.Trace{Func: "empty"}, chained[1]}
	r := &recorder{}
	trace.Walk(ts, r)
	for i, tr := range ts {
		if want := runsOf(tr); !slices.Equal(r.ended[i], want) {
			t.Errorf("trace %d (%s) ended with %d entries, want its own %d", i, tr.Func, len(r.ended[i]), len(want))
		}
	}
}

// TestCollectAllocationBound bounds what collecting every function of
// the walk app allocates when no trace is filled: callee chains are
// spliced by reference, so a call site pays for one translation of each
// distinct callee node rather than a flat copy of every variant (the
// flat copies allocated 7,917,536 bytes).  It measures the process-wide
// allocation counter, so it must not run in parallel.
func TestCollectAllocationBound(t *testing.T) {
	m := core.GenerateApp(walkApp)
	a := dsa.Analyze(m, dsa.DefaultOptions())
	fns := m.FuncNames()

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	c := trace.NewCollector(a, trace.DefaultOptions())
	for _, fn := range fns {
		c.Collect(fn)
	}
	runtime.ReadMemStats(&after)

	const bound = 6_000_000
	alloc := after.TotalAlloc - before.TotalAlloc
	t.Logf("collecting %d functions allocated %d bytes", len(fns), alloc)
	if alloc > bound {
		t.Errorf("collection allocated %s, want at most %s", mb(alloc), mb(bound))
	}
}

func mb(b uint64) string { return fmt.Sprintf("%.2f MB", float64(b)/1e6) }
