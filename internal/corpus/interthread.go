package corpus

import (
	"context"
	"fmt"

	"deepmc/internal/crashsim"
	"deepmc/internal/dynamic"
	"deepmc/internal/interp"
	"deepmc/internal/pmcontract"
	"deepmc/internal/report"
)

// This file plants the corpus's inter-thread persistency bugs: durable
// side effects built on another strand's non-persisted data (PMRace's
// "PM inter-thread inconsistency") and cross-strand flush/fence
// elision.  They are the schedule fuzzer's primary targets — unlike the
// single-strand corpus bugs, their crash windows only open between two
// strands' persist operations, so finding them exercises interleaving-
// and fault-schedule exploration rather than plain enumeration depth.
//
// The harnesses are crashcases specs assembled the same way: no corpus
// program declares these strands, so each harness carries its producer
// and consumer itself, and the fixed variant swaps the repaired
// producer in by name.  They follow the crashcases design rules
// (commit-marker anchored one-directional invariants, distinguishable
// sentinel values), but their Flagged oracle is the DYNAMIC checker:
// the static passes see each strand's persists as locally well-ordered;
// only the runtime happens-before analysis observes the cross-strand
// dependence.

// interThreadSpecs returns the planted inter-thread pairs.  Both carry
// a handwritten repair of the producer (ordering its persist before the
// consumer strand runs is a scheduling fix, not a mechanical
// flush/fence insertion the fixer knows).
func interThreadSpecs() []crashCaseSpec {
	return []crashCaseSpec{
		// itqueue.c:11 — the producer strand stores the payload and hands
		// off WITHOUT flushing it; the consumer strand reads the payload
		// and makes a commit marker durable.  A crash after the consumer's
		// fence can leave commit=1 durable while the payload never reached
		// the medium: a durable side effect built on non-persisted data.
		// The dynamic checker reports this as DMC-D03 (unflushed RAW).
		{
			program: "ITQUEUE", file: "itqueue.c", line: 11, rule: report.RuleStrandDependence,
			harness: `
type mqueue struct {
	data: int
	commit: int
}
func producer(q: *mqueue) {
	file "itqueue.c"
	strandbegin 1        @10
	store %q.data, 42    @11
	strandend 1          @12
	ret                  @13
}
func consumer(q: *mqueue) {
	file "itqueue.c"
	strandbegin 2        @20
	%v = load %q.data    @21
	store %q.commit, 1   @22
	flush %q.commit      @23
	strandend 2          @24
	fence                @25
	ret                  @26
}
func main() {
	file "harness_it.c"
	%q = palloc mqueue
	call producer(%q)
	call consumer(%q)
	ret
}
`,
			fix: `
func producer(q: *mqueue) {
	file "itqueue.c"
	strandbegin 1        @10
	store %q.data, 42    @11
	flush %q.data        @11
	strandend 1          @12
	fence                @12
	ret                  @13
}
`,
			// queue = obj 1.
			inv: func(im *crashsim.Image) error {
				if fld(im, 1, "commit") == 1 && fld(im, 1, "data") != 42 {
					return fmt.Errorf("consumer committed (commit=1) but the producer's payload is not durable (data=%d)",
						fld(im, 1, "data"))
				}
				return nil
			},
		},

		// itlog.c:32 — the publisher strand flushes its record but elides
		// the fence before handing off; the indexer strand builds a durable
		// index entry over the still-staged record.  Both words drain at
		// the indexer's fence, so an adversarial drain order (or an
		// eviction of the staged commit line) persists the index entry
		// first: commit=1 durable, record lost.  The dynamic checker
		// reports the ordinary cross-strand RAW (DMC-D02) — the write WAS
		// flushed, just never fenced before the dependence.
		{
			program: "ITLOG", file: "itlog.c", line: 32, rule: report.RuleStrandDependence,
			harness: `
type xlog struct {
	rec: int
	commit: int
}
func publish(l: *xlog) {
	file "itlog.c"
	strandbegin 1        @30
	store %l.rec, 9      @31
	flush %l.rec         @32
	strandend 1          @33
	ret                  @34
}
func index_entry(l: *xlog) {
	file "itlog.c"
	strandbegin 2        @40
	%v = load %l.rec     @41
	store %l.commit, 1   @42
	flush %l.commit      @43
	strandend 2          @44
	fence                @45
	ret                  @46
}
func main() {
	file "harness_it.c"
	%l = palloc xlog
	call publish(%l)
	call index_entry(%l)
	ret
}
`,
			fix: `
func publish(l: *xlog) {
	file "itlog.c"
	strandbegin 1        @30
	store %l.rec, 9      @31
	flush %l.rec         @32
	strandend 1          @33
	fence                @33
	ret                  @34
}
`,
			// log = obj 1.
			inv: func(im *crashsim.Image) error {
				if fld(im, 1, "commit") == 1 && fld(im, 1, "rec") != 9 {
					return fmt.Errorf("index entry durable (commit=1) but the published record is not (rec=%d)",
						fld(im, 1, "rec"))
				}
				return nil
			},
		},
	}
}

// InterThreadCases builds the harness pair for every planted
// inter-thread persistency bug.  Flagged is left false; the
// inter-thread cross-validation glue fills it from a DYNAMIC checker
// run (see dynamicFlagged) rather than the static passes.
func InterThreadCases() ([]crashsim.CrossCase, error) {
	return buildCases(interThreadSpecs(), nil)
}

// dynamicFlagged runs the case's buggy module once under the runtime
// happens-before checker, under contract ct, and reports whether it
// warned about a cross-strand dependence in the case's file.  This is
// the inter-thread cases' Flagged oracle — the analogue of the
// static-checker run CrossValidateCtx uses for the single-strand corpus:
// the static passes see each strand's persists as locally well-ordered,
// so only the dynamic analysis can supply this verdict.
func dynamicFlagged(c *crashsim.CrossCase, ct pmcontract.Contract) (bool, error) {
	rt := dynamic.NewRuntime(true)
	rt.Contract = ct
	ip := interp.New(c.Buggy, rt)
	if _, err := ip.Run(c.Entry); err != nil {
		return false, fmt.Errorf("corpus: dynamic oracle run %s %s:%d: %w", c.Program, c.File, c.Line, err)
	}
	for _, w := range rt.Checker.Report().Warnings {
		if w.Dynamic && w.File == c.File {
			return true, nil
		}
	}
	return false, nil
}

// CrossValidateInterThreadCtx runs the three-way differential gate
// over the planted inter-thread bugs: the dynamic checker supplies
// Flagged, and the crash enumerator (with the given options — pass a
// faultinj config or a schedule-fuzzer injector to open the
// cross-strand drain windows) supplies Reproduced and FixedClean.  See
// crashsim.CrossValidateCtx for the partial-result caveat under a
// deadline.
func CrossValidateInterThreadCtx(ctx context.Context, o crashsim.Options) (*crashsim.CrossReport, error) {
	cases, err := InterThreadCases()
	if err != nil {
		return nil, err
	}
	for i := range cases {
		flagged, err := dynamicFlagged(&cases[i], o.Contract)
		if err != nil {
			return nil, err
		}
		cases[i].Flagged = flagged
	}
	return crashsim.CrossValidateCtx(ctx, cases, o)
}
