package crashsim

import (
	"context"
	"fmt"

	"deepmc/internal/fanout"
	"deepmc/internal/faultinj"
	"deepmc/internal/interp"
	"deepmc/internal/ir"
	"deepmc/internal/pmcontract"
)

// Options configures EnumerateOpts.
type Options struct {
	// Stride checks every Nth surviving crash point; values < 1 mean 1.
	Stride int
	// Workers follows core.Config.Workers semantics: 0 means one worker
	// per GOMAXPROCS, negative means 1, positive is taken literally.
	// Violations are merged in crash-step order, so the Result is
	// byte-identical for any worker count.
	Workers int
	// Prune restricts crash points to persist-relevant boundaries (steps
	// during which a persistent write/flush/fence/tx-add/tx-end fired)
	// and drops points whose recovered durable state duplicates an
	// earlier one.  Pruning never changes whether the enumeration is
	// clean: a crash between two persist-quiet instructions yields an
	// image identical to the previous crash point's.
	Prune bool
	// MaxSteps bounds the planning/step-counting run (0 uses the
	// interpreter default).  When set, a program that exhausts the budget
	// is enumerated over its truncated prefix instead of failing — the
	// fuzz harness uses this to tame pathological loops.
	MaxSteps int
	// Faults enables deterministic fault injection (package faultinj)
	// during execution.  A fresh Schedule is built from this Config for
	// every execution — the pruned planning run and each unpruned
	// per-point re-execution — so repeated runs replay byte-identical
	// faults.  In pruned mode the reordered/delayed classes add
	// mid-drain crash surfaces and Result.Injections/FaultLog report the
	// planning run's injection log; in unpruned mode those two classes
	// are inert (no PartialFencer) and the log is not aggregated.
	Faults *faultinj.Config
	// Injector, when set, decorates the planning run's hook stack with a
	// custom injection schedule (the schedule fuzzer's genome-driven
	// faults + targeted flush delays) instead of Faults.  Injector
	// implies pruned enumeration: the decorated planning run is the one
	// execution whose crash surface the genome describes, and per-point
	// re-execution would need the wrapper re-armed mid-stream.  The
	// injector's log lands in Result.FaultLog, so a witness replay can
	// assert byte-identity against it.
	Injector Injector
	// MinStep / MaxStep, when MaxStep > 0, restrict pruned enumeration
	// to crash points with MinStep <= step <= MaxStep — the targeted
	// validation entry the fuzzer uses to re-check one implicated
	// persist boundary without re-enumerating the whole program.
	// Points outside the window count into Result.Pruned.  Ignored by
	// unpruned enumeration.
	MinStep, MaxStep int
	// Contract selects the hardware persistency contract whose
	// crash-discard rule the simulation applies; the zero value is x86
	// clwb/sfence.  A CXL contract with a persistence domain makes
	// stores durable at store time (host crashes lose nothing) and adds
	// device-failure images — uncommitted domain words rolled back to
	// their last barrier-committed values — to every crash point's
	// outcome set.  An empty-domain CXL contract enumerates exactly like
	// x86.
	Contract pmcontract.Contract
}

// Injector decorates an execution's hook stack with a replayable
// injection schedule.  Wrap must build a FRESH decoration each call
// (enumeration may execute the program several times); Injections and
// Log report the most recently wrapped execution's schedule, in the
// same byte-replayable format as faultinj.Schedule.Log.
type Injector interface {
	Wrap(inner interp.Hooks) interp.Hooks
	Injections() int
	Log() string
}

// EnumerateOpts runs entry and checks the invariant at every crash
// point.  At each crash point the guaranteed-durable image is extended
// with every possible persist outcome of the in-flight words — dirty
// cachelines may be evicted and clwb'd lines may drain at any time
// before the fence, so any subset of them may have reached the medium.
// The invariant must hold for every outcome; one counterexample marks
// the crash point violated (that is precisely how unflushed writes and
// missing barriers manifest on real hardware: as one unlucky persist
// ordering).
//
// The program first executes once to discover crash points (all steps,
// or only the persist-relevant deduped ones when o.Prune is set); the
// surviving points are sharded across o.Workers workers.  o.Stride > 1
// samples every Nth crash point (for long programs); Options{Stride: 1,
// Workers: 1} is the exhaustive single-threaded enumeration the pruned
// path is checked against.  o.Faults optionally injects faults.
func EnumerateOpts(m *ir.Module, entry string, inv Invariant, o Options) (*Result, error) {
	return EnumerateCtx(context.Background(), m, entry, inv, o)
}

// EnumerateCtx is EnumerateOpts with cancellation and graceful
// degradation: when ctx is done, the planning run stops promptly (the
// completed prefix is still enumerated), unchecked crash points are
// counted in Result.Skipped, and the Result comes back Partial with
// Notes describing what was cut — not as an error.  A panic while
// checking one crash point is recovered, noted, and does not abort
// sibling points.
func EnumerateCtx(ctx context.Context, m *ir.Module, entry string, inv Invariant, o Options) (*Result, error) {
	if err := ir.Verify(m); err != nil {
		return nil, err
	}
	stride := max(o.Stride, 1)
	res := &Result{}
	var steps []int
	var check func(i int) (*Violation, bool, error)
	if o.Prune || o.Injector != nil {
		p := newPlanner(o.Contract)
		r := execute(ctx, m, entry, p, o, o.MaxSteps)
		if err := res.begin(r, "planning run", "planning run"); err != nil {
			return nil, err
		}
		if r.sched != nil {
			res.Injections = r.sched.Injections()
			res.FaultLog = r.sched.Log()
		}
		var points []planPoint
		windowed := 0
		for _, pt := range p.points {
			if o.MaxStep > 0 && (pt.step < o.MinStep || pt.step > o.MaxStep) {
				windowed++
				continue
			}
			points = append(points, pt)
		}
		// Mid-drain fault states are extra candidates beyond the step
		// count; nothing was pruned then.
		res.Deduped = p.deduped
		res.Pruned = max(res.TotalSteps-len(p.points)-p.deduped, 0) + windowed
		var sel []planPoint
		for i := 0; i < len(points); i += stride {
			sel = append(sel, points[i])
			steps = append(steps, points[i].step)
		}
		check = func(i int) (*Violation, bool, error) { return sel[i].check(inv), false, nil }
	} else {
		r := execute(ctx, m, entry, interp.NopHooks{}, Options{}, o.MaxSteps)
		if err := res.begin(r, "step-counting run", "full run"); err != nil {
			return nil, err
		}
		for k := 1; k <= res.TotalSteps; k += stride {
			steps = append(steps, k)
		}
		check = func(i int) (*Violation, bool, error) { return checkOne(ctx, m, entry, inv, o, steps[i]) }
	}
	res.CrashesRun = len(steps)
	viols, skipped, notes, err := checkPoints(ctx, steps, fanout.Workers(o.Workers), check)
	if err != nil {
		return nil, err
	}
	res.Violations = viols
	res.Skipped += skipped
	res.Notes = append(res.Notes, notes...)
	if skipped > 0 || len(notes) > 0 {
		res.Partial = true
	}
	return res, nil
}

// begin records how the run that finds the crash points ended: it sets
// TotalSteps, and a canceled run leaves a partial result over the
// completed prefix.  Any stop other than that or the Options.MaxSteps
// budget is an error.
func (res *Result) begin(r run, name, errName string) error {
	switch r.stop {
	case runCanceled:
		res.Partial = true
		res.Notes = append(res.Notes,
			fmt.Sprintf("%s canceled after %d steps; enumerating the completed prefix", name, r.steps))
	case runFailed:
		return fmt.Errorf("crashsim: %s: %w", errName, r.err)
	}
	res.TotalSteps = r.steps
	return nil
}

// runStop says how one interpreter run ended.
type runStop int

const (
	runDone     runStop = iota // the entry function returned
	runBudget                  // the step budget ran out: a simulated crash
	runCanceled                // the context was done
	runFailed                  // any other error
)

// run is the outcome of one interpreter execution.
type run struct {
	stop  runStop
	steps int   // instructions that fully executed
	err   error // the interpreter's error, unless stop is runDone
	// sched is the injection schedule the run was decorated with, nil
	// without one.
	sched interface {
		Injections() int
		Log() string
	}
}

// execute is the one way this package runs a program: entry runs once
// under hooks, decorated with a fresh copy of o's injection schedule
// (Injector takes precedence over Faults), and stops after budget steps.
// A budget of 0 keeps the interpreter's default, whose exhaustion is a
// failure rather than a crash.  On a stop the interpreter's step counter
// includes the instruction it refused to run, so that one is not
// counted.
func execute(ctx context.Context, m *ir.Module, entry string, hooks interp.Hooks, o Options, budget int) run {
	var r run
	switch {
	case o.Injector != nil:
		hooks, r.sched = o.Injector.Wrap(hooks), o.Injector
	case o.Faults != nil:
		sched := faultinj.New(*o.Faults)
		hooks, r.sched = faultinj.Wrap(hooks, sched), sched
	}
	ip := interp.New(m, hooks)
	if budget > 0 {
		ip.MaxSteps = budget
	}
	ip.SetContext(ctx)
	_, r.err = ip.Run(entry)
	r.steps = ip.Steps()
	switch {
	case r.err == nil:
		r.stop = runDone
	case ip.Canceled():
		r.stop, r.steps = runCanceled, r.steps-1
	case ip.BudgetExhausted() && budget > 0:
		r.stop, r.steps = runBudget, r.steps-1
	default:
		r.stop = runFailed
	}
	return r
}
