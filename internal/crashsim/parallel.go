package crashsim

import (
	"context"
	"fmt"

	"deepmc/internal/fanout"
	"deepmc/internal/ir"
)

// pointStatus is one crash point's outcome slot: results land indexed
// by input position and merge in crash-step order, so violations, skip
// counts, and notes — and any run error, reported for the earliest
// failing point — are independent of the worker count.
type pointStatus struct {
	viol    *Violation
	err     error
	skipped bool
	note    string
}

// checkPoints applies check to every selected crash point (steps holds
// each point's step), fanning the points out across a worker pool.  A
// done context skips the remaining points (counted, not errored); a
// panic while checking one point is recovered into a note without
// aborting siblings.
func checkPoints(ctx context.Context, steps []int, workers int, check func(i int) (*Violation, bool, error)) ([]Violation, int, []string, error) {
	slots := make([]pointStatus, len(steps))
	fanout.Run(workers, len(steps), func(i int) {
		defer func() {
			if r := recover(); r != nil {
				slots[i].note = fmt.Sprintf("crash point at step %d: panic recovered: %v", steps[i], r)
			}
		}()
		if ctx.Err() != nil {
			slots[i].skipped = true
			return
		}
		slots[i].viol, slots[i].skipped, slots[i].err = check(i)
	})
	var viols []Violation
	var skipped int
	var notes []string
	for i, s := range slots {
		if s.err != nil {
			return nil, 0, nil, fmt.Errorf("crashsim: run to step %d: %w", steps[i], s.err)
		}
		if s.viol != nil {
			viols = append(viols, *s.viol)
		}
		if s.skipped {
			skipped++
		}
		if s.note != "" {
			notes = append(notes, s.note)
		}
	}
	return viols, skipped, notes, nil
}

// check applies the invariant to a planned crash point's snapshot.  No
// re-execution happens: the persist-outcome enumeration runs directly
// on the snapshot (the planning run already proved the state equals a
// re-execution's).
func (p planPoint) check(inv Invariant) *Violation {
	err := p.snap.checkOutcomes(inv, int64(p.step))
	if err == nil {
		return nil
	}
	if p.mid {
		err = fmt.Errorf("mid-drain fault state: %w", err)
	}
	return &Violation{Step: p.step, Err: err}
}

// checkOne simulates a crash after step k: re-execute with that step
// budget (replaying the configured fault schedule, if any), then test
// the invariant over every persist outcome of the in-flight words.  A
// step-budget stop is the simulated crash; a context cancellation
// reports the point as skipped; a completed run is the final crash
// point; any other error is a real failure.  Each crash point seeds its
// own sampled-outcome RNG (checkOutcomes) and its own fresh injection
// schedule, so workers share no random state.
func checkOne(ctx context.Context, m *ir.Module, entry string, inv Invariant, o Options, k int) (*Violation, bool, error) {
	st := newNVMState(o.Contract)
	switch r := execute(ctx, m, entry, st, o, k); r.stop {
	case runCanceled:
		return nil, true, nil
	case runFailed:
		return nil, false, r.err
	}
	if err := st.checkOutcomes(inv, int64(k)); err != nil {
		return &Violation{Step: k, Err: err}, false, nil
	}
	return nil, false, nil
}
