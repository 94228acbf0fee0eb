package checker

import (
	"fmt"
	"slices"
	"strings"

	"deepmc/internal/dsa"
	"deepmc/internal/ir"
	"deepmc/internal/report"
	"deepmc/internal/trace"
)

// ScanPoint names a point of one function's scan: a trace, by its index
// in collection order, and how many of its entries precede the point.
type ScanPoint struct{ Trace, Offset int }

// ScanShared returns fn's findings as checkFunction adds them, unsorted,
// and the states of a shared walk's scanner at the end of each trace and
// at each point a trace restarts from.
func (c *Checker) ScanShared(fn string) (rep *report.Report, ends []string, restored map[ScanPoint]string) {
	rep = report.New()
	c.checkFunction(fn, rep)
	l := newStateLog(c, report.New(), nil)
	if ts := c.Collector.Collect(fn); len(ts) > 0 {
		trace.Walk(ts, l)
	}
	return rep, l.ends, l.states
}

// ScanFromScratch is the reference for ScanShared: it scans each of fn's
// traces whole, from the empty prefix, in collection order, sharing
// nothing between traces but the report.  Besides the findings and the
// end states it returns its states at the given points.
func (c *Checker) ScanFromScratch(fn string, at map[ScanPoint]string) (rep *report.Report, ends []string, states map[ScanPoint]string) {
	rep = report.New()
	l := newStateLog(c, rep, at)
	for _, t := range c.Collector.Collect(fn) {
		l.Reset()
		t.Runs(func(run []trace.Entry) bool {
			l.Consume(run)
			return true
		})
		l.End()
	}
	return rep, l.ends, l.states
}

// TargetFunctions returns the functions a module check scans.
func (c *Checker) TargetFunctions() []*ir.Function { return c.targetFunctions() }

// stateLog is a scanner that records its state at the end of every
// trace, on every restore, and after a run that ends at a point of at.
type stateLog struct {
	*scanner
	trace, offset int
	slotOffset    []int
	at            map[ScanPoint]string
	states        map[ScanPoint]string
	ends          []string
}

func newStateLog(c *Checker, rep *report.Report, at map[ScanPoint]string) *stateLog {
	return &stateLog{scanner: c.newScanner(rep), trace: -1, at: at, states: make(map[ScanPoint]string)}
}

func (l *stateLog) Reset() {
	l.trace, l.offset = l.trace+1, 0
	l.scanner.Reset()
}

func (l *stateLog) Restore(slot int) {
	l.trace, l.offset = l.trace+1, l.slotOffset[slot]
	l.scanner.Restore(slot)
	l.states[ScanPoint{l.trace, l.offset}] = l.scanState.String()
}

func (l *stateLog) Save(slot int) {
	for len(l.slotOffset) <= slot {
		l.slotOffset = append(l.slotOffset, 0)
	}
	l.slotOffset[slot] = l.offset
	l.scanner.Save(slot)
}

func (l *stateLog) Consume(run []trace.Entry) {
	l.scanner.Consume(run)
	l.offset += len(run)
	if p := (ScanPoint{l.trace, l.offset}); l.at != nil {
		if _, ok := l.at[p]; ok {
			l.states[p] = l.scanState.String()
		}
	}
}

func (l *stateLog) End() {
	l.scanner.End()
	l.ends = append(l.ends, l.scanState.String())
}

// String renders what the rules can read of the state: empty summaries,
// frames above the open transactions and a closed region's map are left
// out.  Entries and objects print by identity, so two states agree only
// if they point at the same entries of the same runs.
func (s *scanState) String() string {
	var b strings.Builder
	for _, w := range s.pending {
		fmt.Fprintf(&b, "pending %p covered=%t domain=%t epoch=%d tx=%d\n", w.e, w.covered, w.domain, w.epochSeq, w.txDepth)
	}
	for _, f := range s.txStack {
		fmt.Fprintf(&b, "tx %p logged=%v writes=%d fenceLast=%t flushes=%v\n", f.beginEntry, f.logged, f.writes, f.fenceLast, f.flushesPerObj)
	}
	fmt.Fprintf(&b, "epoch %d in=%t lastEnd=%p fenced=%t unfenced=%p strand=%d\n",
		s.epochSeq, s.inEpoch, s.lastEpochEnd, s.fenceSinceEpochEnd, s.lastUnfenced, s.curStrand)
	fmt.Fprintf(&b, "prevRegion %v\n", regionIDs(s.prevRegion))
	if s.inRegion {
		fmt.Fprintf(&b, "curRegion %v\n", regionIDs(s.curRegion))
	}
	var strands []int64
	for id, ws := range s.strandWrites {
		if len(ws) > 0 {
			strands = append(strands, id)
		}
	}
	slices.Sort(strands)
	for _, id := range strands {
		fmt.Fprintf(&b, "strand %d %v\n", id, s.strandWrites[id])
	}
	fmt.Fprintf(&b, "unbarriered %v\n", s.unbarriered)
	for _, n := range sortedNodes(s.objs) {
		if st := s.objs[n]; len(st.written) > 0 || len(st.flushes) > 0 {
			fmt.Fprintf(&b, "obj %d written=%q flushes=%v\n", n.ID(), st.written, st.flushes)
		}
	}
	return b.String()
}

// regionIDs renders a region map as object id -> first-write entry.
func regionIDs(m map[*dsa.Node]*trace.Entry) string {
	var b strings.Builder
	for _, n := range sortedNodes(m) {
		fmt.Fprintf(&b, "%d:%p ", n.ID(), m[n])
	}
	return b.String()
}

func sortedNodes[V any](m map[*dsa.Node]V) []*dsa.Node {
	ns := make([]*dsa.Node, 0, len(m))
	for n := range m {
		ns = append(ns, n)
	}
	slices.SortFunc(ns, func(x, y *dsa.Node) int { return x.ID() - y.ID() })
	return ns
}
