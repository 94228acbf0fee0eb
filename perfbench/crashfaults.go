package main

// crash-faults: one op is a full fault-class differential, the work of
// `deepmc crashsim -faults all`: for each fault class at rate 1, every
// bug harness is enumerated buggy, replayed with the same seed, and
// enumerated fixed.  Every call into DeepMC made by this workload is in
// this file.

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"deepmc/internal/corpus"
	"deepmc/internal/crashsim"
	"deepmc/internal/faultinj"
)

const (
	// crashFaultsOpsPerSecond sets the op count; an op takes 30-45 ms.
	crashFaultsOpsPerSecond = 40
	crashFaultsWarmOps      = 5
)

type crashFaults struct {
	p     params
	cases []crashsim.CrossCase
	seeds []int64 // fault seed of each op
}

func newCrashFaults(p params) workload { return &crashFaults{p: p} }

func (w *crashFaults) close() { w.cases = nil }

func (w *crashFaults) setup(bool) error {
	w.close()
	cases, err := corpus.CrashCases()
	if err != nil {
		return err
	}
	w.cases = cases
	rng := rand.New(rand.NewSource(w.p.seed))
	w.seeds = make([]int64, crashFaultsOpsPerSecond*w.p.seconds/w.p.scale)
	for i := range w.seeds {
		w.seeds[i] = rng.Int63()
	}
	for i := 0; i < crashFaultsWarmOps; i++ {
		if _, err := w.differential(nil, -1, rng.Int63(), map[string]float64{}); err != nil {
			return err
		}
	}
	return nil
}

// differential runs one op and reports whether every class passed:
// all buggy harnesses detected, all fixed harnesses clean, and every
// replay byte-identical.
func (w *crashFaults) differential(tr *tracer, op int, seed int64, counts map[string]float64) (bool, error) {
	root := tr.begin("op", op, -1)
	defer tr.end(root)
	ctx := context.Background()
	ok := true
	for _, cl := range faultinj.AllClasses() {
		o := crashsim.Options{
			Workers: 1,
			Prune:   true,
			Faults:  &faultinj.Config{Classes: []faultinj.Class{cl}, Rate: 1, Seed: seed},
		}
		for i := range w.cases {
			c := &w.cases[i]
			var buggy, replay, fixed *crashsim.Result
			var err error
			tr.timed("crashsim.enumerate_buggy", op, root, func() {
				buggy, err = crashsim.EnumerateCtx(ctx, c.Buggy, c.Entry, c.Invariant, o)
			})
			if err != nil {
				return false, fmt.Errorf("%s %s buggy: %w", cl, c.Program, err)
			}
			tr.timed("crashsim.enumerate_replay", op, root, func() {
				replay, err = crashsim.EnumerateCtx(ctx, c.Buggy, c.Entry, c.Invariant, o)
			})
			if err != nil {
				return false, fmt.Errorf("%s %s replay: %w", cl, c.Program, err)
			}
			tr.timed("crashsim.enumerate_fixed", op, root, func() {
				fixed, err = crashsim.EnumerateCtx(ctx, c.Fixed, c.Entry, c.Invariant, o)
			})
			if err != nil {
				return false, fmt.Errorf("%s %s fixed: %w", cl, c.Program, err)
			}
			ok = ok && !buggy.Clean() && fixed.Clean() && !buggy.Partial && !fixed.Partial &&
				buggy.Detail() == replay.Detail() && buggy.FaultLog == replay.FaultLog
			for _, r := range []*crashsim.Result{buggy, replay, fixed} {
				counts["crashsim.steps"] += float64(r.TotalSteps)
				counts["crashsim.points_checked"] += float64(r.CrashesRun)
			}
			counts["faultinj.injections"] += float64(buggy.Injections + fixed.Injections)
		}
	}
	return ok, nil
}

func (w *crashFaults) pass(tr *tracer) (*passResult, error) {
	pr := &passResult{ops: len(w.seeds), layers: map[string]float64{}}
	start := time.Now()
	for i, seed := range w.seeds {
		t0 := time.Now()
		ok, err := w.differential(tr, i, seed, pr.layers)
		pr.lat = append(pr.lat, ms(time.Since(t0)))
		if err != nil {
			return nil, fmt.Errorf("op %d: %w", i, err)
		}
		pr.attempted++
		if !ok {
			pr.failed++
		}
	}
	pr.elapsed = time.Since(start)
	pr.units = float64(pr.attempted)
	if steps := pr.layers["crashsim.steps"]; steps > 0 {
		pr.layers["crashsim.prune_ratio"] = 1 - pr.layers["crashsim.points_checked"]/steps
	}
	for _, k := range []string{"crashsim.steps", "crashsim.points_checked", "faultinj.injections"} {
		pr.layers[k] /= float64(pr.ops)
	}
	return pr, nil
}
