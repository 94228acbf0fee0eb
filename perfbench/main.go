// Command perfbench is DeepMC's end-to-end and per-layer benchmark.
//
// One run executes one workload as a fixed, seeded sequence of ops in
// this single process and prints, as the last line of standard output,
// a JSON object with the correctness verdict and the metrics:
//
//	go build -o perfbench . && ./perfbench --workload check-cold --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the metrics are the end-to-end ones, measured with
// tracing off.  With --trace 1 the run makes an untraced and a traced
// pass over the same op sequence, prints the per-layer metrics and the
// tracing overhead, and writes every span to .bench_build/spans/.
// README.md describes the workloads and how to read the output.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metricDef is one reported metric.
type metricDef struct {
	Name string
	Unit string
}

// endToEnd are the metrics a user of DeepMC sees, measured untraced.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"latency_ms_p50", "ms"},
	{"latency_ms_tail", "ms"},
	{"peak_rss_mb", "MB"},
	{"success_ratio", "ratio"},
	{"untracked_ops_per_s", "1/s"},
}

// perLayer are the traced run's metrics, per op unless README.md says
// otherwise.  A layer a workload does not exercise reports 0.
var perLayer = []metricDef{
	{"ir.parse_ms", "ms"},
	{"ir.verify_ms", "ms"},
	{"dsa.analyze_ms", "ms"},
	{"trace.collect_ms", "ms"},
	{"trace.traces", "count"},
	{"trace.entries", "count"},
	{"trace.truncated_funcs", "count"},
	{"checker.scan_ms", "ms"},
	{"checker.warnings", "count"},
	{"report.merge_ms", "ms"},
	{"report.json_ms", "ms"},
	{"runtime.alloc_mb", "MB"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_cpu_fraction", "ratio"},
	{"runtime.heap_live_mb_end", "MB"},
	{"anacache.fingerprint_ms", "ms"},
	{"anacache.verdict_hit_ratio", "ratio"},
	{"anacache.trace_hit_ratio", "ratio"},
	{"anacache.stores", "count"},
	{"serve.handler_hit_ms", "ms"},
	{"serve.handler_miss_ms", "ms"},
	{"serve.wire_ms", "ms"},
	{"serve.coalesced", "count"},
	{"serve.shed", "count"},
	{"serve.queue_high_water", "count"},
	{"dynamic.write_ns", "ns"},
	{"dynamic.read_ns", "ns"},
	{"dynamic.fence_ns", "ns"},
	{"dynamic.lock_ns", "ns"},
	{"dynamic.events", "count"},
	{"dynamic.cells", "count"},
	{"dynamic.races", "count"},
	{"nvm.stores", "count"},
	{"nvm.flushes", "count"},
	{"nvm.fences", "count"},
	{"nvm.bytes_written", "bytes"},
	{"soak.audit_ms", "ms"},
	{"soak.audited_keys", "count"},
	{"soak.witnesses", "count"},
	{"crashsim.enumerate_buggy_ms", "ms"},
	{"crashsim.enumerate_replay_ms", "ms"},
	{"crashsim.enumerate_fixed_ms", "ms"},
	{"crashsim.steps", "count"},
	{"crashsim.points_checked", "count"},
	{"crashsim.prune_ratio", "ratio"},
	{"faultinj.injections", "count"},
	{"bench.untraced_ops_per_s", "1/s"},
	{"bench.traced_ops_per_s", "1/s"},
	{"bench.untraced_latency_ms_p50", "ms"},
	{"bench.traced_latency_ms_p50", "ms"},
	{"bench.trace_overhead_pct", "%"},
}

// setupReps is how many times a run builds its workload from scratch;
// setup_s is the median, and the last build is the one measured.
const setupReps = 3

// params are one run's inputs.
type params struct {
	seed    int64
	seconds int
	// scale is 1 for a timed run and 2 for a traced run, whose two
	// passes each execute 1/scale of the op sequence.
	scale int
}

// passResult is what one pass over the op sequence measured.
type passResult struct {
	lat       []float64     // per-op latency, ms
	elapsed   time.Duration // wall time of the timed phase
	units     float64       // work counted by ops_per_s
	attempted int           // ops run
	failed    int           // ops whose output failed the correctness check
	// untrackedPerS is soak-tracked's same op stream without the
	// dynamic checker (0 on other workloads).
	untrackedPerS float64
	// ops is the divisor of per-op layer metrics; layers holds the
	// layer metrics the workload measured itself (counters, per-event
	// costs), filled only in traced passes.
	ops    int
	layers map[string]float64
}

// workload is one benchmark workload.  Implementations live one per
// file, and every call into DeepMC's packages is made from that file.
type workload interface {
	// setup builds fresh inputs and program state, warms them up, and
	// releases any state a previous setup built.  traced is true when
	// the next pass is traced.
	setup(traced bool) error
	// pass executes the op sequence; tr is nil when tracing is off.
	pass(tr *tracer) (*passResult, error)
	// close releases the state the last setup built.
	close()
}

var workloads = map[string]func(params) workload{
	"check-cold":    newCheckCold,
	"serve-recheck": newServeRecheck,
	"soak-tracked":  newSoakTracked,
	"crash-faults":  newCrashFaults,
}

// result is the JSON object printed as the last line of output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fl.String("workload", "", "workload to run: check-cold, serve-recheck, soak-tracked or crash-faults")
	seed := fl.Int64("seed", 1, "seed the op sequence is generated from")
	seconds := fl.Int("seconds", 10, "nominal measured seconds; sets the fixed op count")
	trace := fl.Int("trace", 0, "1 = traced run printing per-layer metrics")
	if err := fl.Parse(args); err != nil {
		return err
	}
	mk, ok := workloads[*name]
	if !ok {
		return fmt.Errorf("unknown workload %q", *name)
	}
	if *seconds < 1 {
		return fmt.Errorf("--seconds must be at least 1")
	}
	p := params{seed: *seed, seconds: *seconds, scale: 1}
	if *trace != 0 {
		p.scale = 2
	}
	w := mk(p)
	defer w.close()

	var res *result
	var ctx map[string]any
	var err error
	if *trace == 0 {
		res, ctx, err = timedRun(w)
	} else {
		res, ctx, err = tracedRun(w, *name, *seed)
	}
	if err != nil {
		return err
	}
	ctx["workload"], ctx["seed"], ctx["seconds"], ctx["trace"] = *name, *seed, *seconds, *trace
	for k, v := range environment() {
		ctx[k] = v
	}
	line, err := json.Marshal(ctx)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "perfbench-context %s\n", line)
	out, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, string(out))
	return nil
}

// timedRun sets the workload up setupReps times, then measures one
// untraced pass and reports the end-to-end metrics.
func timedRun(w workload) (*result, map[string]any, error) {
	var setups []float64
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		if err := w.setup(false); err != nil {
			return nil, nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	runtime.GC()
	pr, err := w.pass(nil)
	if err != nil {
		return nil, nil, err
	}
	lat, err := summarize(pr.lat)
	if err != nil {
		return nil, nil, err
	}
	rss, err := peakRSSMB()
	if err != nil {
		return nil, nil, err
	}
	opsPerS := pr.units / pr.elapsed.Seconds()
	untracked := pr.untrackedPerS
	if untracked == 0 {
		// No tracker on this workload: its untracked throughput is its
		// throughput.
		untracked = opsPerS
	}
	vals := map[string]float64{
		"setup_s":             median(setups),
		"ops_per_s":           opsPerS,
		"latency_ms_p50":      lat.P50,
		"latency_ms_tail":     lat.Tail,
		"peak_rss_mb":         rss,
		"success_ratio":       float64(pr.attempted-pr.failed) / float64(pr.attempted),
		"untracked_ops_per_s": untracked,
	}
	ctx := map[string]any{
		"tail_percentile": lat.TailPct,
		"latency_samples": lat.Samples,
		"setup_runs_s":    setups,
	}
	return newResult(pr, vals, endToEnd), ctx, nil
}

// tracedRun measures an untraced and a traced pass over the same op
// sequence, each on a fresh setup, and reports the per-layer metrics
// plus the tracing overhead between the two passes.
func tracedRun(w workload, name string, seed int64) (*result, map[string]any, error) {
	if err := w.setup(false); err != nil {
		return nil, nil, fmt.Errorf("setup: %w", err)
	}
	runtime.GC()
	plain, err := w.pass(nil)
	if err != nil {
		return nil, nil, err
	}
	if err := w.setup(true); err != nil {
		return nil, nil, fmt.Errorf("setup: %w", err)
	}
	tr := newTracer()
	runtime.GC()
	before := readRuntime()
	traced, err := w.pass(tr)
	if err != nil {
		return nil, nil, err
	}
	after := readRuntime()
	vals := map[string]float64{}
	for k, v := range traced.layers {
		vals[k] = v
	}
	runtimeLayer(before, after, traced.ops, vals)
	vals["runtime.heap_live_mb_end"] = heapLiveMB()

	tot := tr.totals()
	for _, m := range perLayer {
		base, ok := strings.CutSuffix(m.Name, "_ms")
		if _, have := vals[m.Name]; !ok || have {
			continue
		}
		vals[m.Name] = perOpMs(tot, base, traced.ops)
	}
	pl, tl := median(plain.lat), median(traced.lat)
	pu, tu := plain.units/plain.elapsed.Seconds(), traced.units/traced.elapsed.Seconds()
	vals["bench.untraced_ops_per_s"], vals["bench.traced_ops_per_s"] = pu, tu
	vals["bench.untraced_latency_ms_p50"], vals["bench.traced_latency_ms_p50"] = pl, tl
	vals["bench.trace_overhead_pct"] = (pu - tu) / pu * 100

	path := filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-seed%d.jsonl", name, seed))
	if err := tr.writeFile(path); err != nil {
		return nil, nil, err
	}
	fmt.Fprintf(os.Stderr, "spans of the traced pass: %s\n", path)
	writeSummary(os.Stderr, tot)

	sum := &passResult{
		attempted: plain.attempted + traced.attempted,
		failed:    plain.failed + traced.failed,
	}
	return newResult(sum, vals, perLayer), map[string]any{"spans_file": path}, nil
}

// newResult fills every listed metric (0 for one the run did not
// measure) and derives the verdict from the ops that failed.
func newResult(pr *passResult, vals map[string]float64, defs []metricDef) *result {
	res := &result{
		Correct:   pr.failed == 0 && pr.attempted > 0,
		Attempted: pr.attempted,
		Failed:    pr.failed,
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	for _, d := range defs {
		res.Metrics[d.Name] = metricValue{Value: vals[d.Name], Unit: d.Unit}
	}
	return res
}

// environment records what a result depends on besides the code.
func environment() map[string]any {
	return map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"commit":     sourceDigest("."),
	}
}

// sourceDigest identifies the code under test: a SHA-256 over the path
// and contents of every Go source and module file below root, so it is
// available in checkouts that are not git repositories.
func sourceDigest(root string) string {
	var files []string
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil // unreadable entries do not identify the code
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s\x00%d\x00", filepath.ToSlash(f), len(b))
		h.Write(b)
	}
	return "src-sha256:" + hex.EncodeToString(h.Sum(nil))[:16]
}
