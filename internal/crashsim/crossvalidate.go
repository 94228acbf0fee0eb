package crashsim

import (
	"context"
	"fmt"
	"strings"

	"deepmc/internal/ir"
)

// CrossCase is one differential-validation case: a harness program that
// drives a known model-violation bug, the same harness with the bug
// repaired, and the consistency invariant the durable image must
// satisfy.  Flagged records whether the static checker reported the bug
// (the caller sets it — crashsim deliberately does not depend on the
// checker, so the two oracles stay independent).
type CrossCase struct {
	Program string // framework the bug lives in ("PMDK", "PMFS", ...)
	File    string
	Line    int
	Rule    string

	Entry     string // entry function of both harness modules
	Buggy     *ir.Module
	Fixed     *ir.Module
	Invariant Invariant
	Flagged   bool
}

// CrossOutcome is one case's verdict from both oracles.
type CrossOutcome struct {
	Program string
	File    string
	Line    int
	Rule    string

	// Flagged: the static checker warns about the bug.
	Flagged bool
	// Reproduced: the crash enumerator found a crash point whose durable
	// image violates the invariant in the buggy harness.
	Reproduced bool
	// FixedClean: the repaired harness enumerates with no violation.
	FixedClean bool
	// Healed: the contract's persistence domain removes the bug — the
	// contract has a domain, neither oracle reports the bug, and the
	// fix enumerates clean.
	Healed bool

	Buggy *Result
	Fixed *Result
}

// Agree reports full agreement between the oracles on this case: the
// checker flags it, a crash point reproduces it, and the fix silences
// it — or the persistence domain healed it for both oracles.
func (o *CrossOutcome) Agree() bool {
	return o.Healed || o.Flagged && o.Reproduced && o.FixedClean
}

// CrossReport aggregates the differential validation over all cases.
type CrossReport struct {
	Outcomes []CrossOutcome
}

// Agree reports whether every case has full oracle agreement.
func (r *CrossReport) Agree() bool {
	for i := range r.Outcomes {
		if !r.Outcomes[i].Agree() {
			return false
		}
	}
	return true
}

// AgreeCount returns how many cases have full oracle agreement.
func (r *CrossReport) AgreeCount() int {
	n := 0
	for i := range r.Outcomes {
		if r.Outcomes[i].Agree() {
			n++
		}
	}
	return n
}

// String renders one line per case plus a summary, deterministically.
func (r *CrossReport) String() string {
	var b strings.Builder
	b.WriteString("cross-validation: static checker vs crash enumeration\n")
	mark := map[bool]string{true: "y", false: "N"}
	for i := range r.Outcomes {
		o := &r.Outcomes[i]
		verdict := "AGREE"
		switch {
		case o.Healed:
			verdict = "AGREE (healed by the persistence domain)"
		case !o.Agree():
			verdict = "DISAGREE"
		}
		fmt.Fprintf(&b, "  %-11s %-24s %-26s flagged=%s reproduced=%s fixed-clean=%s %s\n",
			o.Program, fmt.Sprintf("%s:%d", o.File, o.Line), o.Rule,
			mark[o.Flagged], mark[o.Reproduced], mark[o.FixedClean], verdict)
	}
	fmt.Fprintf(&b, "agreement %d/%d bugs\n", r.AgreeCount(), len(r.Outcomes))
	return b.String()
}

// CrossValidateCtx runs the crash enumerator over every case's buggy
// and fixed harness with the given options.  A bug agrees when the
// static verdict (Flagged), the reproduction (a violating crash point in
// the buggy harness) and the repair (a clean enumeration of the fixed
// harness) all line up.  Under a contract with a persistence domain a
// bug also agrees when the domain healed it: neither the static verdict
// nor the enumeration reports it, and the fix enumerates clean.  When
// ctx expires mid-corpus, already-enumerated cases keep their verdicts
// and the remaining enumerations return partial results (which
// typically read as disagreement — a timed-out differential run is not
// trustworthy, so callers should check ctx.Err() before acting on a
// FAIL).
func CrossValidateCtx(ctx context.Context, cases []CrossCase, o Options) (*CrossReport, error) {
	rep := &CrossReport{}
	for i := range cases {
		c := &cases[i]
		br, err := EnumerateCtx(ctx, c.Buggy, c.Entry, c.Invariant, o)
		if err != nil {
			return nil, fmt.Errorf("crossvalidate %s %s:%d buggy: %w", c.Program, c.File, c.Line, err)
		}
		fr, err := EnumerateCtx(ctx, c.Fixed, c.Entry, c.Invariant, o)
		if err != nil {
			return nil, fmt.Errorf("crossvalidate %s %s:%d fixed: %w", c.Program, c.File, c.Line, err)
		}
		rep.Outcomes = append(rep.Outcomes, CrossOutcome{
			Program:    c.Program,
			File:       c.File,
			Line:       c.Line,
			Rule:       c.Rule,
			Flagged:    c.Flagged,
			Reproduced: !br.Clean(),
			FixedClean: fr.Clean(),
			Healed:     o.Contract.HasDomain() && !c.Flagged && br.Clean() && fr.Clean(),
			Buggy:      br,
			Fixed:      fr,
		})
	}
	return rep, nil
}
