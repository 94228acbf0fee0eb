package tables

import (
	"fmt"
	"os"
	"strings"
	"time"

	"deepmc/internal/anacache"
	"deepmc/internal/core"
	"deepmc/internal/fanout"
)

// cacheBenchResult is the BENCH_cache.json schema.
type cacheBenchResult struct {
	Jobs      int            `json:"jobs"`
	Rounds    int            `json:"rounds"`
	ColdNs    int64          `json:"cold_ns"`
	WarmNs    int64          `json:"warm_ns"`
	Speedup   float64        `json:"speedup"`
	Identical bool           `json:"identical"`
	Stats     anacache.Stats `json:"cache_stats"`
}

// cacheBench times the whole-corpus static analysis cold (empty cache)
// versus warm (every verdict memoized).  The warm run must be
// byte-identical to the cold one — the speedup may not cost
// determinism.
func cacheBench() Result {
	workers := fanout.Workers(Workers)
	const rounds = 5
	jobs, err := corpusJobs(core.Config{Workers: workers})
	if err != nil {
		return fail("cache bench", err)
	}
	withCache := func(c *anacache.Cache) {
		for i := range jobs {
			jobs[i].Config.Cache = c
		}
	}

	// Cold: a fresh cache per round, so every round pays full analysis.
	coldBest, coldOut, err := bestOf(rounds, func() (string, error) {
		cache, err := anacache.New("")
		if err != nil {
			return "", err
		}
		withCache(cache)
		return batchRender(jobs)
	})
	if err != nil {
		return fail("cache bench", err)
	}

	// Warm: one shared cache, populated by an untimed priming run; every
	// timed round is all-hit.
	cache, err := anacache.New("")
	if err != nil {
		return fail("cache bench", err)
	}
	withCache(cache)
	if _, err := batchRender(jobs); err != nil {
		return fail("cache bench", err)
	}
	warmBest, warmOut, err := bestOf(rounds, func() (string, error) { return batchRender(jobs) })
	if err != nil {
		return fail("cache bench", err)
	}

	res := cacheBenchResult{
		Jobs:      workers,
		Rounds:    rounds,
		ColdNs:    coldBest.Nanoseconds(),
		WarmNs:    warmBest.Nanoseconds(),
		Speedup:   float64(coldBest) / float64(warmBest),
		Identical: warmOut == coldOut,
		Stats:     cache.Stats(),
	}

	var b strings.Builder
	b.WriteString("Incremental cache: whole-corpus analysis, cold vs warm\n")
	b.WriteString("------------------------------------------------------\n")
	fmt.Fprintf(&b, "jobs %d, best of %d rounds\n", workers, rounds)
	fmt.Fprintf(&b, "  cold (empty cache):    %10s\n", coldBest.Round(time.Microsecond))
	fmt.Fprintf(&b, "  warm (all verdicts):   %10s\n", warmBest.Round(time.Microsecond))
	fmt.Fprintf(&b, "  speedup:               %10.2fx\n", res.Speedup)
	fmt.Fprintf(&b, "  byte-identical output: %v\n", res.Identical)
	st := res.Stats
	fmt.Fprintf(&b, "  verdict hits/misses:   %d/%d (disk %d), trace hits/misses: %d/%d\n",
		st.VerdictHits, st.VerdictMisses, st.DiskHits, st.TraceHits, st.TraceMisses)
	if !res.Identical {
		b.WriteString("FAIL: warm output diverged from cold\n")
	}
	return Result{Text: b.String(), Bench: res, OK: res.Identical}
}

// cacheGate is the CI gate for the incremental cache: over the full
// corpus it checks that (1) at every worker count in {1, 2, 8} a warm
// run reproduces the cold run byte for byte, (2) all worker counts
// agree with each other, and (3) the disk tier round-trips — a fresh
// process pointed at the same -cache-dir serves the memoized verdicts
// and still renders identical bytes.
func cacheGate() Result {
	var b strings.Builder
	ok := true
	b.WriteString("Incremental cache gate\n")
	b.WriteString("----------------------\n")

	var reference string
	for _, workers := range []int{1, 2, 8} {
		cache, err := anacache.New("")
		if err != nil {
			return fail("cache gate", err)
		}
		jobs, err := corpusJobs(core.Config{Workers: workers, Cache: cache})
		if err != nil {
			return fail("cache gate", err)
		}
		cold, err := batchRender(jobs)
		if err != nil {
			return fail("cache gate", err)
		}
		warm, err := batchRender(jobs)
		if err != nil {
			return fail("cache gate", err)
		}
		st := cache.Stats()
		line := "ok"
		if warm != cold {
			line, ok = "FAIL: warm diverged from cold", false
		} else if st.VerdictMisses == 0 {
			line, ok = "FAIL: cold run hit an empty cache", false
		}
		if reference == "" {
			reference = cold
		} else if cold != reference {
			line, ok = "FAIL: output differs from workers=1", false
		}
		fmt.Fprintf(&b, "  workers %d: cold==warm %-5v  verdict hits %d misses %d  %s\n",
			workers, warm == cold, st.VerdictHits, st.VerdictMisses, line)
	}

	// Disk tier: prime a directory-backed cache, then re-open it as a
	// fresh process would and analyze warm from disk alone.
	dir, err := os.MkdirTemp("", "deepmc-cache-gate-")
	if err != nil {
		return fail("cache gate", err)
	}
	defer os.RemoveAll(dir)
	prime, err := anacache.New(dir)
	if err != nil {
		return fail("cache gate", err)
	}
	jobs, err := corpusJobs(core.Config{Workers: 2, Cache: prime})
	if err != nil {
		return fail("cache gate", err)
	}
	cold, err := batchRender(jobs)
	if err != nil {
		return fail("cache gate", err)
	}
	reopened, err := anacache.New(dir)
	if err != nil {
		return fail("cache gate", err)
	}
	jobs, err = corpusJobs(core.Config{Workers: 2, Cache: reopened})
	if err != nil {
		return fail("cache gate", err)
	}
	warm, err := batchRender(jobs)
	if err != nil {
		return fail("cache gate", err)
	}
	st := reopened.Stats()
	line := "ok"
	if warm != cold {
		line, ok = "FAIL: disk-tier warm run diverged", false
	} else if st.DiskHits == 0 {
		line, ok = "FAIL: reopened cache never read the disk tier", false
	}
	fmt.Fprintf(&b, "  disk tier: reopened dir, disk hits %d  %s\n", st.DiskHits, line)

	if ok {
		b.WriteString("cache gate passed: warm == cold at every worker count, disk tier round-trips\n")
	} else {
		b.WriteString("cache gate FAILED\n")
	}
	return Result{Text: b.String(), OK: ok}
}
