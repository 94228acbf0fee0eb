// Benchmarks regenerating the paper's evaluation: one benchmark per
// table and figure, plus the ablations called out in DESIGN.md §6.
// Custom metrics carry the experiment's own quantities (warnings,
// ops/sec, overhead %) alongside the usual ns/op.
package deepmc_test

import (
	"context"
	"fmt"
	"testing"

	"deepmc/internal/apps/driver"
	"deepmc/internal/apps/memcache"
	"deepmc/internal/apps/nstore"
	"deepmc/internal/apps/redis"
	"deepmc/internal/checker"
	"deepmc/internal/core"
	"deepmc/internal/corpus"
	"deepmc/internal/crashsim"
	"deepmc/internal/dsa"
	"deepmc/internal/dynamic"
	"deepmc/internal/faultinj"
	"deepmc/internal/interp"
	"deepmc/internal/ir"
	"deepmc/internal/nvm"
	"deepmc/internal/pmcontract"
	"deepmc/internal/pmem"
	"deepmc/internal/pmem/mnemosyne"
	"deepmc/internal/pmem/pmdk"
	"deepmc/internal/tables"
	"deepmc/internal/trace"
	"deepmc/internal/workload"
)

// BenchmarkTable1 runs the full static pipeline over all four corpus
// programs — the paper's headline detection experiment (50 warnings, 43
// validated bugs).
func BenchmarkTable1(b *testing.B) {
	var warnings, valid int
	for i := 0; i < b.N; i++ {
		warnings, valid = 0, 0
		for _, p := range corpus.All() {
			ev := mustEval(b, p)
			warnings += len(ev.Report.Warnings)
			truthValid := map[string]bool{}
			for _, g := range p.Truth {
				truthValid[g.Key()] = g.Valid
			}
			for _, w := range ev.Report.Warnings {
				if truthValid[w.Key()] {
					valid++
				}
			}
		}
	}
	b.ReportMetric(float64(warnings), "warnings")
	b.ReportMetric(float64(valid), "validated")
}

// BenchmarkTable2 tallies the studied-bug taxonomy.
func BenchmarkTable2(b *testing.B) {
	var studied int
	for i := 0; i < b.N; i++ {
		studied = 0
		for _, p := range corpus.All() {
			c := p.TruthCounts()
			studied += c.Studied
		}
	}
	b.ReportMetric(float64(studied), "studied-bugs")
}

// BenchmarkTable3 verifies §5.3 completeness: every studied bug is
// re-detected by a fresh checker run.
func BenchmarkTable3(b *testing.B) {
	var found int
	for i := 0; i < b.N; i++ {
		found = 0
		for _, p := range corpus.All() {
			ev := mustEval(b, p)
			for _, g := range p.Truth {
				if g.Studied && ev.Matched[g.Key()] {
					found++
				}
			}
		}
	}
	b.ReportMetric(float64(found), "studied-redetected")
}

// BenchmarkTable8 counts the new bugs a fresh checker run discovers.
func BenchmarkTable8(b *testing.B) {
	var newBugs int
	for i := 0; i < b.N; i++ {
		newBugs = 0
		for _, p := range corpus.All() {
			ev := mustEval(b, p)
			for _, g := range p.Truth {
				if !g.Studied && g.Valid && ev.Matched[g.Key()] {
					newBugs++
				}
			}
		}
	}
	b.ReportMetric(float64(newBugs), "new-bugs")
}

// BenchmarkTable9 measures compile time without (baseline) and with
// DeepMC on the app-scale generated modules.
func BenchmarkTable9(b *testing.B) {
	for _, spec := range core.AppSpecs() {
		m := core.GenerateApp(spec)
		text := ir.Print(m)
		b.Run(spec.Name+"/baseline", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				mm := ir.MustParse(text)
				if err := ir.Verify(mm); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(spec.Name+"/deepmc", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				mm := ir.MustParse(text)
				if err := ir.Verify(mm); err != nil {
					b.Fatal(err)
				}
				if _, err := core.Analyze(mm, core.Config{Model: "strict"}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFigure12 measures application throughput with and without the
// runtime tracker, one sub-benchmark per app x workload x mode.  The
// overhead percentages of the paper's Figure 12 fall out of comparing
// the base and deepmc ops/sec metrics.
func BenchmarkFigure12(b *testing.B) {
	const keyspace = 2048
	b.Run("Memcached", func(b *testing.B) {
		for _, mix := range workload.MemslapMixes() {
			for _, mode := range []string{"base", "deepmc"} {
				mix, mode := mix, mode
				b.Run(fmt.Sprintf("%s/%s", mix.Name, mode), func(b *testing.B) {
					var tr pmem.Tracker
					if mode == "deepmc" {
						tr = pmem.NewCheckerTracker()
					}
					s, err := memcache.Open(memcache.Config{
						Buckets: 1 << 12,
						Region:  mnemosyne.Config{NVM: nvm.Config{Size: 512 << 20}, Tracker: tr},
					})
					if err != nil {
						b.Fatal(err)
					}
					kv := driver.MemcacheKV{S: s}
					if err := driver.Preload(kv, keyspace); err != nil {
						b.Fatal(err)
					}
					b.ResetTimer()
					res, err := driver.Run(kv, mix, 4, b.N, keyspace)
					if err != nil {
						b.Fatal(err)
					}
					b.ReportMetric(res.Throughput(), "ops/sec")
				})
			}
		}
	})
	b.Run("Redis", func(b *testing.B) {
		for _, cmd := range workload.RedisOps {
			for _, mode := range []string{"base", "deepmc"} {
				cmd, mode := cmd, mode
				b.Run(fmt.Sprintf("%s/%s", cmd, mode), func(b *testing.B) {
					var tr pmem.Tracker
					if mode == "deepmc" {
						tr = pmem.NewCheckerTracker()
					}
					db, err := redis.Open(redis.Config{
						Buckets: 1 << 12,
						Pool:    pmdk.Config{NVM: nvm.Config{Size: 1 << 30}, Tracker: tr},
					})
					if err != nil {
						b.Fatal(err)
					}
					kv := driver.RedisKV{DB: db, Cmd: cmd}
					mix := workload.Mix{Name: cmd, Update: 100}
					b.ResetTimer()
					res, err := driver.Run(kv, mix, 4, b.N, keyspace)
					if err != nil {
						b.Fatal(err)
					}
					b.ReportMetric(res.Throughput(), "ops/sec")
				})
			}
		}
	})
	b.Run("NStore", func(b *testing.B) {
		for _, mix := range workload.YCSBMixes() {
			for _, mode := range []string{"base", "deepmc"} {
				mix, mode := mix, mode
				b.Run(fmt.Sprintf("%s/%s", mix.Name, mode), func(b *testing.B) {
					var tr pmem.Tracker
					if mode == "deepmc" {
						tr = pmem.NewCheckerTracker()
					}
					e, err := nstore.Open(nstore.Config{
						NVM: nvm.Config{Size: 512 << 20}, Tracker: tr,
						Capacity: 1 << 17, LogBytes: 256 << 20,
					})
					if err != nil {
						b.Fatal(err)
					}
					kv := driver.NStoreKV{E: e}
					if err := driver.Preload(kv, keyspace); err != nil {
						b.Fatal(err)
					}
					b.ResetTimer()
					res, err := driver.Run(kv, mix, 4, b.N, keyspace)
					if err != nil {
						b.Fatal(err)
					}
					b.ReportMetric(res.Throughput(), "ops/sec")
				})
			}
		}
	})
}

// BenchmarkPerfBugFix reproduces §5.1: buggy vs fixed framework builds on
// the simulator's latency model.
func BenchmarkPerfBugFix(b *testing.B) {
	var rows []tables.PerfFixRow
	for i := 0; i < b.N; i++ {
		rows = tables.PerfFixMeasure()
	}
	best := 0.0
	for _, r := range rows {
		if p := r.ImprovementPct(); p > best {
			best = p
		}
	}
	b.ReportMetric(best, "best-improvement-%")
}

// BenchmarkAblationFieldSensitivity compares field-sensitive DSA against
// object-granular aliasing on the corpus.  The paper argues 31% of the
// performance bugs need field sensitivity; the warning counts quantify
// what the coarse analysis loses (and the spurious reports it adds).
func BenchmarkAblationFieldSensitivity(b *testing.B) {
	for _, sensitive := range []bool{true, false} {
		name := "field-sensitive"
		if !sensitive {
			name = "object-granular"
		}
		b.Run(name, func(b *testing.B) {
			var matched int
			for i := 0; i < b.N; i++ {
				matched = 0
				for _, p := range corpus.All() {
					opts := checker.DefaultOptions(p.Model)
					opts.DSA.FieldSensitive = sensitive
					rep := checker.New(mustModule(b, p), opts).CheckModule()
					ev := corpus.Score(p, rep)
					for _, g := range p.Truth {
						if g.Valid && ev.Matched[g.Key()] {
							matched++
						}
					}
				}
			}
			b.ReportMetric(float64(matched), "true-bugs-found")
		})
	}
}

// BenchmarkAblationTraceCaps varies the loop bound and the persistent-
// path prioritization of the trace collector (paper §4.3 defaults: 10
// iterations, prioritization on).
func BenchmarkAblationTraceCaps(b *testing.B) {
	m := core.GenerateApp(core.AppSpec{Name: "ablation", Funcs: 120, CallDepth: 3, Seed: 11})
	for _, cfg := range []struct {
		name  string
		loops int
		prio  bool
	}{
		{"loops=1/prio", 1, true},
		{"loops=10/prio", 10, true},
		{"loops=10/noprio", 10, false},
		{"loops=50/prio", 50, true},
	} {
		cfg := cfg
		b.Run(cfg.name, func(b *testing.B) {
			var traces int
			for i := 0; i < b.N; i++ {
				opts := checker.DefaultOptions(checker.Strict)
				opts.Trace.LoopIterations = cfg.loops
				opts.Trace.PrioritizePersistent = cfg.prio
				ck := checker.New(m, opts)
				ck.CheckModule()
				traces = 0
				for _, fn := range m.FuncNames() {
					traces += len(ck.Collector.FunctionTraces(fn))
				}
			}
			b.ReportMetric(float64(traces), "traces")
		})
	}
}

// BenchmarkAblationShadowScope compares tracking only persistent memory
// (the paper's design) against tracking all memory, on an interpreter
// workload mixing volatile and persistent accesses (§5.2's scalability
// argument).
func BenchmarkAblationShadowScope(b *testing.B) {
	src := `
module scope

type rec struct {
	a: int
	b: int
}

func work(n) {
	%p = palloc rec
	%v = alloc rec
	%i = const 0
	br head
head:
	%c = lt %i, %n
	condbr %c, body, done
body:
	strandbegin 1
	store %p.a, %i
	flush %p.a
	strandend 1
	store %v.a, %i
	store %v.b, %i
	fence
	%i = add %i, 1
	br head
done:
	ret
}
`
	m := ir.MustParse(src)
	for _, trackAll := range []bool{false, true} {
		name := "persistent-only"
		if trackAll {
			name = "track-all"
		}
		b.Run(name, func(b *testing.B) {
			var cells int
			for i := 0; i < b.N; i++ {
				rt := dynamic.NewRuntime(false)
				rt.Checker.TrackAll = trackAll
				ip := interp.New(m, rt)
				if _, err := ip.Run("work", 200); err != nil {
					b.Fatal(err)
				}
				cells = rt.Checker.StatsSnapshot().Cells
			}
			b.ReportMetric(float64(cells), "shadow-cells")
		})
	}
}

// BenchmarkAnalyzeParallel measures the worker-pool checker against the
// serial baseline over the full corpus (modules parsed up front, so
// only the static pipeline is timed).  The serial/jobs=N ns/op ratio is
// the speedup; the speedup-x metric on the jobs=N runs reports it
// directly.  On >=4 logical CPUs the wave-scheduled fan-out reaches
// >=2x; reports stay byte-identical under every worker count.
func BenchmarkAnalyzeParallel(b *testing.B) {
	progs := corpus.All()
	mods := make([]*ir.Module, len(progs))
	models := make([]string, len(progs))
	for i, p := range progs {
		mods[i] = mustModule(b, p)
		models[i] = p.Model.String()
	}
	analyzeAll := func(b *testing.B, workers int) {
		for i := 0; i < b.N; i++ {
			for j, m := range mods {
				if _, err := core.Analyze(m, core.Config{Model: models[j], Workers: workers}); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	var serialNsOp float64
	b.Run("serial", func(b *testing.B) {
		analyzeAll(b, 1)
		serialNsOp = float64(b.Elapsed().Nanoseconds()) / float64(b.N)
	})
	for _, jobs := range []int{2, 4, 0} {
		name := fmt.Sprintf("jobs=%d", jobs)
		if jobs == 0 {
			name = "jobs=GOMAXPROCS"
		}
		b.Run(name, func(b *testing.B) {
			analyzeAll(b, jobs)
			if ns := float64(b.Elapsed().Nanoseconds()) / float64(b.N); ns > 0 && serialNsOp > 0 {
				b.ReportMetric(serialNsOp/ns, "speedup-x")
			}
		})
	}
}

// BenchmarkDSA isolates the points-to analysis cost on the largest
// corpus module.
func BenchmarkDSA(b *testing.B) {
	m := mustModule(b, corpus.PMDK())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dsa.Analyze(m, dsa.DefaultOptions())
	}
}

// BenchmarkTraceCollection isolates trace collection: on the PMDK
// corpus, and on a generated app whose root function splices about a
// hundred call sites into continuations that grow to the entry budget —
// the workload where copying path prefixes would turn quadratic.  Both
// fill every trace's entries, as FunctionTraces does.  The check case
// prices a cold check of the same app without DSA: collection in
// chain form plus the rule scan, which is what a cold analysis pays.
func BenchmarkTraceCollection(b *testing.B) {
	cases := []struct {
		name string
		m    *ir.Module
	}{
		{"PMDK", mustModule(b, corpus.PMDK())},
		{"app335", core.GenerateApp(core.AppSpec{Name: "app335", Funcs: 335, CallDepth: 3, Seed: 44})},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			a := dsa.Analyze(tc.m, dsa.DefaultOptions())
			fns := tc.m.FuncNames()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c := trace.NewCollector(a, trace.DefaultOptions())
				for _, fn := range fns {
					c.FunctionTraces(fn)
				}
			}
		})
	}
	b.Run("check", func(b *testing.B) {
		m := core.GenerateApp(core.AppSpec{Name: "app335", Funcs: 335, CallDepth: 3, Seed: 44})
		opts := checker.DefaultOptions(checker.Strict)
		a := dsa.Analyze(m, opts.DSA)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ck := &checker.Checker{Opts: opts, Analysis: a, Collector: trace.NewCollector(a, opts.Trace)}
			ck.CheckModuleParallelCtx(context.Background(), 1)
		}
	})
}

// BenchmarkCrashFaults isolates the crash path: one op is the
// four-class fault differential at rate 1 over the 15 crash harnesses,
// each enumerated buggy, replayed with the same seed, and enumerated
// fixed (pruned, one worker) — the work of `deepmc crashsim -faults all`
// and of one perfbench crash-faults op, without parsing the harnesses.
func BenchmarkCrashFaults(b *testing.B) {
	ctx := context.Background()
	cases, err := corpus.CrashCases()
	if err != nil {
		b.Fatal(err)
	}
	var points int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		points = 0
		for _, cl := range faultinj.AllClasses() {
			o := crashsim.Options{Workers: 1, Prune: true,
				Faults: &faultinj.Config{Classes: []faultinj.Class{cl}, Rate: 1, Seed: 42}}
			for j := range cases {
				c := &cases[j]
				for _, m := range []*ir.Module{c.Buggy, c.Buggy, c.Fixed} {
					res, err := crashsim.EnumerateCtx(ctx, m, c.Entry, c.Invariant, o)
					if err != nil {
						b.Fatal(err)
					}
					if res.Clean() != (m == c.Fixed) {
						b.Fatalf("%s %s:%d under %s: unexpected verdict:\n%s", c.Program, c.File, c.Line, cl, res.Detail())
					}
					points += res.CrashesRun
				}
			}
		}
	}
	b.ReportMetric(float64(points), "crash-points/op")
}

// BenchmarkPoolOps prices the NVM pool alone under a memcache-shaped op
// mix: each op stores a 64-byte value and an 8-byte header word into
// its slot, flushes both and fences.  It runs an x86 pool and a CXL
// pool whose persistence domain is the whole pool, each with and
// without every fault class (at the soak's default rate).
func BenchmarkPoolOps(b *testing.B) {
	const size, slot = 4 << 20, 128
	for _, pc := range []struct {
		name     string
		contract pmcontract.Contract
	}{
		{"x86", pmcontract.X86Contract()},
		{"cxl", pmcontract.CXLContract(pmcontract.WholeDomain())},
	} {
		for _, faults := range []*faultinj.Config{nil, {Classes: faultinj.AllClasses(), Rate: 0.2, Seed: 42}} {
			name := pc.name + "/clean"
			if faults != nil {
				name = pc.name + "/faults"
			}
			b.Run(name, func(b *testing.B) {
				p := nvm.NewPool(nvm.Config{Size: size, Faults: faults, Contract: pc.contract})
				val := make([]byte, 64)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					off := i * 7919 % (size / slot) * slot
					val[0] = byte(i)
					if err := p.Store(off, val); err != nil {
						b.Fatal(err)
					}
					if err := p.Store64(off+64, uint64(i)); err != nil {
						b.Fatal(err)
					}
					if err := p.Flush(off, 72); err != nil {
						b.Fatal(err)
					}
					p.Fence()
				}
			})
		}
	}
}
