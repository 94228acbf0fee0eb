package crashsim

import (
	"context"
	"fmt"

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
	stride := o.Stride
	if stride < 1 {
		stride = 1
	}

	res := &Result{}
	if o.Prune || o.Injector != nil {
		p := newPlanner(o.Contract)
		var hooks interp.Hooks = p
		var sched *faultinj.Schedule
		switch {
		case o.Injector != nil:
			hooks = o.Injector.Wrap(p)
		case o.Faults != nil:
			sched = faultinj.New(*o.Faults)
			hooks = faultinj.Wrap(p, sched)
		}
		ip := interp.New(m, hooks)
		if o.MaxSteps > 0 {
			ip.MaxSteps = o.MaxSteps
		}
		ip.SetContext(ctx)
		if _, err := ip.Run(entry); err != nil {
			switch {
			case ip.Canceled():
				res.Partial = true
				res.Notes = append(res.Notes,
					fmt.Sprintf("planning run canceled after %d steps; enumerating the completed prefix", ip.Steps()-1))
			case ip.BudgetExhausted() && o.MaxSteps > 0:
				// Enumerate over the truncated prefix.
			default:
				return nil, fmt.Errorf("crashsim: planning run: %w", err)
			}
		}
		if o.Injector != nil {
			res.Injections = o.Injector.Injections()
			res.FaultLog = o.Injector.Log()
		} else if sched != nil {
			res.Injections = sched.Injections()
			res.FaultLog = sched.Log()
		}
		res.TotalSteps = completedSteps(ip, o)
		var points []planPoint
		windowed := 0
		seen := make(map[string]bool, len(p.points))
		for _, pt := range p.points {
			if seen[pt.key] {
				res.Deduped++
				continue
			}
			seen[pt.key] = true
			if o.MaxStep > 0 && (pt.step < o.MinStep || pt.step > o.MaxStep) {
				windowed++
				continue
			}
			points = append(points, pt)
		}
		res.Pruned = res.TotalSteps - len(p.points)
		if res.Pruned < 0 {
			// Mid-drain fault states are extra candidates beyond the step
			// count; nothing was pruned then.
			res.Pruned = 0
		}
		res.Pruned += windowed
		var sel []planPoint
		for i := 0; i < len(points); i += stride {
			sel = append(sel, points[i])
		}
		res.CrashesRun = len(sel)
		viols, skipped, notes := checkSnapshots(ctx, inv, sel, resolveWorkers(o.Workers))
		res.Violations = viols
		res.Skipped += skipped
		res.Notes = append(res.Notes, notes...)
		if skipped > 0 || len(notes) > 0 {
			res.Partial = true
		}
		return res, nil
	}

	ip := interp.New(m, interp.NopHooks{})
	if o.MaxSteps > 0 {
		ip.MaxSteps = o.MaxSteps
	}
	ip.SetContext(ctx)
	if _, err := ip.Run(entry); err != nil {
		switch {
		case ip.Canceled():
			res.Partial = true
			res.Notes = append(res.Notes,
				fmt.Sprintf("step-counting run canceled after %d steps; enumerating the completed prefix", ip.Steps()-1))
		case ip.BudgetExhausted() && o.MaxSteps > 0:
			// Enumerate over the truncated prefix.
		default:
			return nil, fmt.Errorf("crashsim: full run: %w", err)
		}
	}
	res.TotalSteps = completedSteps(ip, o)
	var sel []int
	for k := 1; k <= res.TotalSteps; k += stride {
		sel = append(sel, k)
	}
	res.CrashesRun = len(sel)
	viols, skipped, notes, err := checkPoints(ctx, m, entry, inv, o, sel, resolveWorkers(o.Workers))
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

// completedSteps returns how many instructions fully executed: on a
// budget abort or a cancellation the interpreter's counter includes the
// instruction it refused to run.
func completedSteps(ip *interp.Interp, o Options) int {
	n := ip.Steps()
	if ip.Canceled() {
		return n - 1
	}
	if ip.BudgetExhausted() && o.MaxSteps > 0 && n > o.MaxSteps {
		n = o.MaxSteps
	}
	return n
}
