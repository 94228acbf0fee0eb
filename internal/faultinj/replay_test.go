package faultinj

import (
	"fmt"
	"math/rand"
	"testing"

	"deepmc/internal/interp"
	"deepmc/internal/ir"
)

// fullRecorder implements every optional extension, so all four fault
// classes can act during a replay run.
type fullRecorder struct {
	evictRecorder
	partials []string
}

func (r *fullRecorder) OnPartialFence(pick func(n int) []int, _ *ir.Site) {
	// Pretend 4 lines are staged, so reordered/delayed picks consume
	// schedule state and record.
	r.partials = append(r.partials, fmt.Sprint(pick(4)))
}

// replayProg exercises every injection surface: wide persistent stores
// (torn writes), flushes (drops), and fences (reordered/delayed drains).
const replayProg = `
module replay
type rec struct {
	a: int
	b: int
	c: int
	d: int
}
func main() {
	file "replay.c"
	%r = palloc rec
	store %r.a, 1     @1
	memset %r, 0, 32  @2
	flush %r          @3
	fence             @4
	store %r.b, 2     @5
	flush %r.b        @6
	store %r.c, 3     @7
	flush %r.c        @8
	fence             @9
	memset %r, 7, 32  @10
	flush %r          @11
	fence             @12
	ret
}
`

// runOnce executes the replay program under a fresh schedule built by
// mk and returns (records rendering, log).
func runOnce(t *testing.T, mk func() *Schedule) (string, string) {
	t.Helper()
	m, err := ir.Parse(replayProg)
	if err != nil {
		t.Fatal(err)
	}
	sched := mk()
	ip := interp.New(m, Wrap(&fullRecorder{}, sched))
	if _, err := ip.Run("main"); err != nil {
		t.Fatal(err)
	}
	return fmt.Sprint(sched.Records()), sched.Log()
}

// TestReplayRoundTripAllClasses re-executes the same program under the
// same seeded Config, per class and with all classes armed, and
// requires Records() and Log() byte-identical — the schedule contract
// every witness replay and the crashsim fault gate rely on.
func TestReplayRoundTripAllClasses(t *testing.T) {
	classSets := [][]Class{AllClasses()}
	for _, cl := range AllClasses() {
		classSets = append(classSets, []Class{cl})
	}
	for _, classes := range classSets {
		name := fmt.Sprint(classes)
		cfg := Config{Classes: classes, Rate: 0.7, Seed: 1234}
		rec1, log1 := runOnce(t, func() *Schedule { return New(cfg) })
		rec2, log2 := runOnce(t, func() *Schedule { return New(cfg) })
		if rec1 != rec2 {
			t.Errorf("%s: Records() diverged across replays:\n%s\nvs\n%s", name, rec1, rec2)
		}
		if log1 != log2 {
			t.Errorf("%s: Log() diverged across replays:\n%s\nvs\n%s", name, log1, log2)
		}
		if log1 == "" {
			t.Errorf("%s: schedule never fired over the replay program", name)
		}

		// NewWithSource with the same seeded RNG must be exactly New.
		_, log3 := runOnce(t, func() *Schedule {
			return NewWithSource(cfg, rand.New(rand.NewSource(cfg.Seed)))
		})
		if log3 != log1 {
			t.Errorf("%s: NewWithSource(rand) != New:\n%s\nvs\n%s", name, log3, log1)
		}
	}
}
