package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"time"
)

// tailGrid is the set of percentiles, in tenths of a percent, a tail
// may be reported at.  Using a fixed grid keeps the reported percentile
// identical between runs of the same op count, so two runs' tails are
// comparable.
var tailGrid = []int{999, 990, 950, 900, 750, 500}

// minBeyond is the fewest samples that must lie above a reported tail
// percentile; a percentile resting on fewer is an outlier, not a tail.
const minBeyond = 10

// rank is the 1-based nearest-rank position of the permille-th
// percentile among n samples: the smallest rank with at least that
// share of samples at or below it.
func rank(n, permille int) int {
	r := (permille*n + 999) / 1000
	if r < 1 {
		r = 1
	}
	return r
}

// tailPercentile returns the highest grid percentile (in tenths of a
// percent) with at least minBeyond of n samples beyond it, and false
// when even the median has fewer.
func tailPercentile(n int) (int, bool) {
	for _, pm := range tailGrid {
		if n-rank(n, pm) >= minBeyond {
			return pm, true
		}
	}
	return 0, false
}

// percentile returns the permille-th percentile of sorted by the
// nearest-rank method.
func percentile(sorted []float64, permille int) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rank(len(sorted), permille)-1]
}

// median returns the middle value of xs (mean of the two middles for an
// even count); xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// latencySummary is the median and tail of one pass's op latencies.
type latencySummary struct {
	P50     float64 // ms
	Tail    float64 // ms
	TailPct float64 // the percentile Tail was taken at
	Samples int
}

// summarize computes the median and the tail of lat (milliseconds).  It
// fails when there are too few samples for a tail.
func summarize(lat []float64) (latencySummary, error) {
	s := append([]float64(nil), lat...)
	sort.Float64s(s)
	pm, ok := tailPercentile(len(s))
	if !ok {
		return latencySummary{}, fmt.Errorf("%d latency samples: no percentile has %d samples beyond it", len(s), minBeyond)
	}
	return latencySummary{P50: percentile(s, 500), Tail: percentile(s, pm), TailPct: float64(pm) / 10, Samples: len(s)}, nil
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// peakRSSMB reads the process's peak resident set (VmHWM) in MB.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			break
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0, err
		}
		return kb / 1024, nil
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("VmHWM not found in /proc/self/status")
}

// runtimeSample is a point-in-time reading of Go runtime counters; two
// samples bracket a pass and their difference is charged to its ops.
type runtimeSample struct {
	totalAlloc uint64
	numGC      uint32
	gcCPU      float64 // seconds of CPU spent in GC
	allCPU     float64 // seconds of CPU available to the process
}

var cpuMetrics = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func readRuntime() runtimeSample {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	s := make([]metrics.Sample, len(cpuMetrics))
	copy(s, cpuMetrics)
	metrics.Read(s)
	return runtimeSample{
		totalAlloc: m.TotalAlloc,
		numGC:      m.NumGC,
		gcCPU:      s[0].Value.Float64(),
		allCPU:     s[1].Value.Float64(),
	}
}

// runtimeLayer converts the difference between two samples into the
// runtime layer's per-op metrics.
func runtimeLayer(before, after runtimeSample, ops int, out map[string]float64) {
	n := float64(ops)
	out["runtime.alloc_mb"] = float64(after.totalAlloc-before.totalAlloc) / (1 << 20) / n
	out["runtime.gc_cycles"] = float64(after.numGC-before.numGC) / n
	if cpu := after.allCPU - before.allCPU; cpu > 0 {
		out["runtime.gc_cpu_fraction"] = (after.gcCPU - before.gcCPU) / cpu
	}
}

// heapLiveMB collects garbage and returns the live heap in MB.
func heapLiveMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}
