package core

import (
	"context"
	"testing"

	"deepmc/internal/faultinj"
	"deepmc/internal/ir"
)

const strandSrc = `
module strands

type logbuf struct {
	cursor: int
	data: [16]int
}

func append_two(l: *logbuf) {
	file "logbuf.c"
	strandbegin 1        @10
	store %l.cursor, 1   @11
	flush %l.cursor      @12
	strandend 1          @13
	strandbegin 2        @14
	store %l.cursor, 2   @15
	flush %l.cursor      @16
	strandend 2          @17
	fence                @18
	ret
}

func main() {
	%l = palloc logbuf
	call append_two(%l)
	ret
}
`

const cleanSrc = `
module clean

type counter struct {
	value: int
}

func main() {
	file "c.c"
	%c = palloc counter
	store %c.value, 1  @5
	flush %c.value     @6
	fence              @7
	store %c.value, 2  @8
	flush %c.value     @9
	fence              @10
	ret
}
`

// TestDynamicConvergesUnderInjection runs the strand-race detector with
// and without fault injection: the injected faults are all legal under
// the persistency contract, so the happens-before verdicts must be
// identical — same WAW race found, nothing extra.
func TestDynamicConvergesUnderInjection(t *testing.T) {
	m := ir.MustParse(strandSrc)
	base, _, err := RunDynamic(context.Background(), m, Config{}, "main", nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(base.Warnings) == 0 {
		t.Fatal("baseline dynamic run found no strand race")
	}
	fc := &faultinj.Config{Classes: faultinj.AllClasses(), Rate: 1, Seed: 3}
	faulted, sched, err := RunDynamic(context.Background(), m, Config{}, "main", fc)
	if err != nil {
		t.Fatal(err)
	}
	if sched == nil || sched.Injections() == 0 {
		t.Fatal("rate-1 injection never fired on a flush-bearing program")
	}
	if base.String() != faulted.String() {
		t.Fatalf("dynamic verdicts diverged under injection:\n%s\nvs\n%s\nschedule:\n%s",
			base, faulted, sched.Log())
	}
}

// TestDynamicCleanStaysCleanUnderInjection: a correct program must not
// alarm under injection — the fault classes stay within what the
// contract already permits.
func TestDynamicCleanStaysCleanUnderInjection(t *testing.T) {
	m := ir.MustParse(cleanSrc)
	for seed := int64(1); seed <= 5; seed++ {
		fc := &faultinj.Config{Classes: faultinj.AllClasses(), Rate: 1, Seed: seed}
		rep, _, err := RunDynamic(context.Background(), m, Config{}, "main", fc)
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.Warnings) != 0 {
			t.Fatalf("seed %d: clean program alarmed under injection:\n%s", seed, rep)
		}
	}
}

// TestRunDynamicFaultedReplay: the same seed yields the same schedule
// log and the same report, byte for byte.
func TestRunDynamicFaultedReplay(t *testing.T) {
	m := ir.MustParse(strandSrc)
	fc := &faultinj.Config{Classes: faultinj.AllClasses(), Rate: 0.5, Seed: 17}
	r1, s1, err := RunDynamic(context.Background(), m, Config{}, "main", fc)
	if err != nil {
		t.Fatal(err)
	}
	r2, s2, err := RunDynamic(context.Background(), m, Config{}, "main", fc)
	if err != nil {
		t.Fatal(err)
	}
	if s1.Log() != s2.Log() {
		t.Fatalf("schedules diverged:\n%s\nvs\n%s", s1.Log(), s2.Log())
	}
	if r1.String() != r2.String() {
		t.Fatalf("reports diverged:\n%s\nvs\n%s", r1, r2)
	}
}
