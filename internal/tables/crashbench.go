package tables

import (
	"fmt"
	"runtime"
	"slices"
	"strings"
	"time"

	"deepmc/internal/corpus"
	"deepmc/internal/crashsim"
	"deepmc/internal/fanout"
)

// crashsimBench times crash-point enumeration over the differential
// harness corpus in three configurations: the legacy exhaustive
// enumerator (every step is a crash point, one worker), the pruned
// enumerator (persist-relevant points only, image-hash deduped), and
// the pruned enumerator fanned out over Workers.  The pruned runs must
// render byte-identical results at every worker count — the speedup is
// free of any nondeterminism tax.
func crashsimBench() Result {
	workers := fanout.Workers(Workers)
	cases, err := corpus.CrashCases()
	if err != nil {
		return fail("crashsim bench", err)
	}

	run := func(o crashsim.Options) func() ([]string, error) {
		return func() ([]string, error) {
			var details []string
			for i := range cases {
				c := &cases[i]
				br, err := crashsim.EnumerateOpts(c.Buggy, c.Entry, c.Invariant, o)
				if err != nil {
					return nil, err
				}
				fr, err := crashsim.EnumerateOpts(c.Fixed, c.Entry, c.Invariant, o)
				if err != nil {
					return nil, err
				}
				details = append(details, br.Detail(), fr.Detail())
			}
			return details, nil
		}
	}

	const rounds = 20
	legacy, _, err := bestOf(rounds, run(crashsim.Options{Workers: 1}))
	if err != nil {
		return fail("crashsim bench", err)
	}
	prunedSerial, serialDetails, err := bestOf(rounds, run(crashsim.Options{Prune: true, Workers: 1}))
	if err != nil {
		return fail("crashsim bench", err)
	}
	prunedPar, parDetails, err := bestOf(rounds, run(crashsim.Options{Prune: true, Workers: workers}))
	if err != nil {
		return fail("crashsim bench", err)
	}
	identical := slices.Equal(serialDetails, parDetails)

	var b strings.Builder
	b.WriteString("Crash enumeration: differential harness corpus, 15 bugs x (buggy + fixed)\n\n")
	fmt.Fprintf(&b, "%-34s %14s %9s\n", "Configuration", "Wall time", "Speedup")
	fmt.Fprintf(&b, "%-34s %14s %9s\n", "legacy exhaustive (serial)", legacy.Round(time.Microsecond), "1.00x")
	fmt.Fprintf(&b, "%-34s %14s %8.2fx\n", "pruned (serial)",
		prunedSerial.Round(time.Microsecond), float64(legacy)/float64(prunedSerial))
	fmt.Fprintf(&b, "%-34s %14s %8.2fx\n", fmt.Sprintf("pruned (workers=%d)", workers),
		prunedPar.Round(time.Microsecond), float64(legacy)/float64(prunedPar))
	fmt.Fprintf(&b, "\nBest of %d rounds on %d logical CPUs; pruned results byte-identical across worker counts: %v\n",
		rounds, runtime.NumCPU(), identical)
	return Result{Text: b.String(), OK: identical}
}
