package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer.  Spans of one op share Op; a
// span's Parent is the index of the span that caused it (-1 for an op's
// root span).
type span struct {
	Name   string `json:"name"`
	Op     int    `json:"op"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory; they are written out once, at exit.  A
// nil *tracer is valid and records nothing, so untraced passes run the
// same code with tracing off.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its index (-1 on a nil tracer).
func (t *tracer) begin(name string, op, parent int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Op: op, Parent: parent, Start: now})
	return len(t.spans) - 1
}

// end closes span i.
func (t *tracer) end(i int) {
	if t == nil || i < 0 {
		return
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	t.spans[i].End = now
	t.mu.Unlock()
}

// add records an already-measured span (used where the timing was taken
// by middleware on another goroutine).
func (t *tracer) add(name string, op, parent int, start, end time.Time) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Op: op, Parent: parent,
		Start: start.Sub(t.epoch).Nanoseconds(), End: end.Sub(t.epoch).Nanoseconds()})
	return len(t.spans) - 1
}

// timed runs f inside a span and returns its index.
func (t *tracer) timed(name string, op, parent int, f func()) int {
	i := t.begin(name, op, parent)
	f()
	t.end(i)
	return i
}

// layerTotals sums each span name's duration and self time (duration
// minus the part of it that its child spans cover), and counts calls.
type layerTotals struct {
	Calls int
	Total time.Duration
	Self  time.Duration
}

func (t *tracer) totals() map[string]*layerTotals {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int][]int)
	for i, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	out := make(map[string]*layerTotals)
	for i, s := range t.spans {
		lt := out[s.Name]
		if lt == nil {
			lt = &layerTotals{}
			out[s.Name] = lt
		}
		d := time.Duration(s.End - s.Start)
		lt.Calls++
		lt.Total += d
		lt.Self += d - covered(t.spans, children[i], s)
	}
	return out
}

// covered returns how much of parent's interval the given child spans
// cover, counting overlapping children once.
func covered(spans []span, kids []int, parent span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		s, e := spans[k].Start, spans[k].End
		if s < parent.Start {
			s = parent.Start
		}
		if e > parent.End {
			e = parent.End
		}
		if e > s {
			iv = append(iv, [2]int64{s, e})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var sum, curS, curE int64
	for i, v := range iv {
		if i == 0 || v[0] > curE {
			sum += curE - curS
			curS, curE = v[0], v[1]
			continue
		}
		if v[1] > curE {
			curE = v[1]
		}
	}
	sum += curE - curS
	return time.Duration(sum)
}

// perOpMs is a span name's total time per op, in ms.
func perOpMs(tot map[string]*layerTotals, name string, ops int) float64 {
	lt := tot[name]
	if lt == nil || ops == 0 {
		return 0
	}
	return ms(lt.Total) / float64(ops)
}

// perCallMs is a span name's mean time per call, in ms.
func perCallMs(tot map[string]*layerTotals, name string) float64 {
	lt := tot[name]
	if lt == nil || lt.Calls == 0 {
		return 0
	}
	return ms(lt.Total) / float64(lt.Calls)
}

// writeSummary prints one line per span name: calls, total and self
// time, sorted by self time.
func writeSummary(w io.Writer, tot map[string]*layerTotals) {
	names := make([]string, 0, len(tot))
	for n := range tot {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return tot[names[i]].Self > tot[names[j]].Self })
	fmt.Fprintf(w, "%-28s %8s %12s %12s\n", "span", "calls", "total_ms", "self_ms")
	for _, n := range names {
		lt := tot[n]
		fmt.Fprintf(w, "%-28s %8d %12.3f %12.3f\n", n, lt.Calls, ms(lt.Total), ms(lt.Self))
	}
}

// writeFile dumps every span as JSON lines to path.
func (t *tracer) writeFile(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
