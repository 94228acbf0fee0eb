package faultinj

import (
	"deepmc/internal/ir"
	"fmt"
	"strings"
	"testing"

	"deepmc/internal/interp"
)

func TestParseClasses(t *testing.T) {
	cases := []struct {
		in   string
		want []Class
		err  bool
	}{
		{"", nil, false},
		{"none", nil, false},
		{"all", AllClasses(), false},
		{"torn", []Class{TornWrite}, false},
		{"torn,delayed", []Class{TornWrite, DelayedDrain}, false},
		{" dropped , reordered ", []Class{DroppedFlush, ReorderedPersist}, false},
		{"bogus", nil, true},
		{"torn,bogus", nil, true},
	}
	for _, c := range cases {
		got, err := ParseClasses(c.in)
		if c.err {
			if err == nil {
				t.Errorf("ParseClasses(%q): want error, got %v", c.in, got)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParseClasses(%q): %v", c.in, err)
			continue
		}
		if fmt.Sprint(got) != fmt.Sprint(c.want) {
			t.Errorf("ParseClasses(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestClassStrings(t *testing.T) {
	seen := map[string]bool{}
	for _, cl := range AllClasses() {
		s := cl.String()
		if s == "" || strings.Contains(s, "?") {
			t.Errorf("class %d has bad name %q", cl, s)
		}
		if seen[s] {
			t.Errorf("duplicate class name %q", s)
		}
		seen[s] = true
		// Every name must round-trip through the parser.
		cls, err := ParseClasses(s)
		if err != nil || len(cls) != 1 || cls[0] != cl {
			t.Errorf("round-trip %q: %v %v", s, cls, err)
		}
	}
}

// TestScheduleReplay drives two schedules from the same config through
// the same decision sequence and requires byte-identical logs; a third
// with a different seed must diverge somewhere.
func TestScheduleReplay(t *testing.T) {
	cfg := Config{Classes: AllClasses(), Rate: 0.5, Seed: 99}
	drive := func(s *Schedule) string {
		for i := 0; i < 200; i++ {
			cl := AllClasses()[i%len(AllClasses())]
			if s.Fire(cl) {
				s.Record(cl, fmt.Sprintf("site%d", i), fmt.Sprintf("detail n=%d", s.Intn(16)))
			}
		}
		return s.Log()
	}
	a, b := drive(New(cfg)), drive(New(cfg))
	if a != b {
		t.Fatalf("same config, different logs:\n%s\nvs\n%s", a, b)
	}
	if a == "" {
		t.Fatal("rate-0.5 schedule never fired in 200 opportunities")
	}
	cfg.Seed = 100
	if c := drive(New(cfg)); c == a {
		t.Fatal("different seeds produced identical logs")
	}
}

func TestFireDisabledClass(t *testing.T) {
	s := New(Config{Classes: []Class{TornWrite}, Rate: 1, Seed: 1})
	for i := 0; i < 10; i++ {
		if s.Fire(DroppedFlush) {
			t.Fatal("disabled class fired")
		}
		if !s.Fire(TornWrite) {
			t.Fatal("enabled rate-1 class did not fire")
		}
	}
	if got := s.InjectionsOf(DroppedFlush); got != 0 {
		t.Fatalf("disabled class recorded %d injections", got)
	}
}

func TestSubsetProperNonempty(t *testing.T) {
	s := New(Config{Classes: AllClasses(), Rate: 1, Seed: 3})
	for n := 2; n <= 12; n++ {
		for trial := 0; trial < 50; trial++ {
			sub := s.Subset(n)
			if len(sub) == 0 || len(sub) >= n {
				t.Fatalf("Subset(%d) = %v: not a nonempty proper subset", n, sub)
			}
			for i := range sub {
				if sub[i] < 0 || sub[i] >= n {
					t.Fatalf("Subset(%d) = %v: index out of range", n, sub)
				}
				if i > 0 && sub[i] <= sub[i-1] {
					t.Fatalf("Subset(%d) = %v: not strictly ascending", n, sub)
				}
			}
		}
	}
}

// recorder is a minimal Hooks implementation capturing the call stream.
type recorder struct {
	interp.NopHooks
	calls []string
}

func (r *recorder) OnWrite(obj *interp.Object, off, size int, _ *ir.Site) {
	r.calls = append(r.calls, fmt.Sprintf("write %d+%d/%d", obj.ID, off, size))
}

func (r *recorder) OnFlush(obj *interp.Object, off, size int, _ *ir.Site) {
	r.calls = append(r.calls, fmt.Sprintf("flush %d+%d/%d", obj.ID, off, size))
}

func (r *recorder) OnFence(*ir.Site) {
	r.calls = append(r.calls, "fence")
}

// evictRecorder additionally implements Evictor.
type evictRecorder struct {
	recorder
	evicts []string
}

func (r *evictRecorder) OnEvict(obj *interp.Object, off, size int, _ *ir.Site) {
	r.evicts = append(r.evicts, fmt.Sprintf("evict %d+%d/%d", obj.ID, off, size))
}

// TestWrapDroppedFlushRetry checks the hardware-retry contract: a
// dropped clwb is withheld from the inner hooks until the next fence,
// where it is re-forwarded before OnFence so the drain still covers it.
func TestWrapDroppedFlushRetry(t *testing.T) {
	inner := &recorder{}
	sched := New(Config{Classes: []Class{DroppedFlush}, Rate: 1, Seed: 1})
	h := Wrap(inner, sched)
	obj := &interp.Object{ID: 7, Persistent: true, Slots: make([]interp.Val, 4)}

	h.OnWrite(obj, 0, 8, &ir.Site{Func: "f", File: "a.c", Line: 1})
	h.OnFlush(obj, 0, 8, &ir.Site{Func: "f", File: "a.c", Line: 2})
	if got := fmt.Sprint(inner.calls); got != "[write 7+0/8]" {
		t.Fatalf("dropped flush leaked through: %v", inner.calls)
	}
	h.OnFence(&ir.Site{Func: "f", File: "a.c", Line: 3})
	want := "[write 7+0/8 flush 7+0/8 fence]"
	if got := fmt.Sprint(inner.calls); got != want {
		t.Fatalf("fence retry stream = %v, want %v", inner.calls, want)
	}
	if sched.InjectionsOf(DroppedFlush) != 1 {
		t.Fatalf("injections = %d, want 1", sched.InjectionsOf(DroppedFlush))
	}
	// A volatile flush is never dropped.
	vol := &interp.Object{ID: 8, Persistent: false, Slots: make([]interp.Val, 1)}
	h.OnFlush(vol, 0, 8, &ir.Site{Func: "f", File: "a.c", Line: 4})
	if got := inner.calls[len(inner.calls)-1]; got != "flush 8+0/8" {
		t.Fatalf("volatile flush was intercepted: %v", got)
	}
}

// TestWrapTornWrite checks that a wide persistent store tears into a
// nonempty proper subset of its granules, delivered through OnEvict,
// and that narrow or volatile stores never tear.
func TestWrapTornWrite(t *testing.T) {
	inner := &evictRecorder{}
	sched := New(Config{Classes: []Class{TornWrite}, Rate: 1, Seed: 5})
	h := Wrap(inner, sched)
	obj := &interp.Object{ID: 3, Persistent: true, Slots: make([]interp.Val, 8)}

	h.OnWrite(obj, 0, 32, &ir.Site{Func: "f", File: "a.c", Line: 1})
	if len(inner.evicts) == 0 || len(inner.evicts) >= 4 {
		t.Fatalf("32-byte store tore %d of 4 granules: %v", len(inner.evicts), inner.evicts)
	}
	if sched.InjectionsOf(TornWrite) != 1 {
		t.Fatalf("injections = %d, want 1", sched.InjectionsOf(TornWrite))
	}

	// 8-byte stores are single-granule: nothing to tear.
	before := len(inner.evicts)
	h.OnWrite(obj, 0, 8, &ir.Site{Func: "f", File: "a.c", Line: 2})
	// Volatile stores never tear regardless of width.
	vol := &interp.Object{ID: 4, Persistent: false, Slots: make([]interp.Val, 8)}
	h.OnWrite(vol, 0, 32, &ir.Site{Func: "f", File: "a.c", Line: 3})
	if len(inner.evicts) != before {
		t.Fatalf("narrow or volatile store tore: %v", inner.evicts[before:])
	}
}

// TestWrapWithoutExtensions checks graceful degradation: an inner Hooks
// implementing neither Evictor nor PartialFencer gets no torn writes or
// mid-drain callbacks, and the forwarded stream is unchanged.
func TestWrapWithoutExtensions(t *testing.T) {
	inner := &recorder{}
	sched := New(Config{Classes: []Class{TornWrite, ReorderedPersist}, Rate: 1, Seed: 2})
	h := Wrap(inner, sched)
	obj := &interp.Object{ID: 1, Persistent: true, Slots: make([]interp.Val, 8)}
	h.OnWrite(obj, 0, 32, &ir.Site{Func: "f", File: "a.c", Line: 1})
	h.OnFlush(obj, 0, 32, &ir.Site{Func: "f", File: "a.c", Line: 2})
	h.OnFence(&ir.Site{Func: "f", File: "a.c", Line: 3})
	want := "[write 1+0/32 flush 1+0/32 fence]"
	if got := fmt.Sprint(inner.calls); got != want {
		t.Fatalf("stream = %v, want %v", inner.calls, want)
	}
	if n := sched.Injections(); n != 0 {
		t.Fatalf("injected %d faults with no extension available:\n%s", n, sched.Log())
	}
}
