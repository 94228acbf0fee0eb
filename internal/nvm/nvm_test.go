package nvm

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func newTestPool() *Pool { return NewPool(Config{Size: 1 << 16}) }

func TestStoreLoadRoundTrip(t *testing.T) {
	p := newTestPool()
	a := mustAlloc(p, 64)
	if err := p.Store64(a, 0xdeadbeef); err != nil {
		t.Fatal(err)
	}
	v, err := p.Load64(a)
	if err != nil {
		t.Fatal(err)
	}
	if v != 0xdeadbeef {
		t.Errorf("load = %#x", v)
	}
}

func TestUnflushedStoreLostOnCrash(t *testing.T) {
	p := newTestPool()
	a := mustAlloc(p, 8)
	p.Store64(a, 42)
	p.Crash()
	v, _ := p.Load64(a)
	if v != 0 {
		t.Errorf("unflushed store survived crash: %d", v)
	}
}

func TestFlushWithoutFenceLostOnCrash(t *testing.T) {
	p := newTestPool()
	a := mustAlloc(p, 8)
	p.Store64(a, 42)
	p.Flush(a, 8)
	p.Crash()
	v, _ := p.Load64(a)
	if v != 0 {
		t.Errorf("clwb without sfence survived crash: %d", v)
	}
}

func TestFlushedFencedStoreSurvivesCrash(t *testing.T) {
	p := newTestPool()
	a := mustAlloc(p, 8)
	p.Store64(a, 42)
	p.Flush(a, 8)
	p.Fence()
	p.Crash()
	v, _ := p.Load64(a)
	if v != 42 {
		t.Errorf("persisted store lost: %d", v)
	}
}

func TestFenceOnlyCoversStagedLines(t *testing.T) {
	p := newTestPool()
	a := mustAlloc(p, 64)
	b := mustAlloc(p, 64)
	p.Store64(a, 1)
	p.Store64(b, 2)
	p.Flush(a, 8)
	p.Fence()
	p.Crash()
	va, _ := p.Load64(a)
	vb, _ := p.Load64(b)
	if va != 1 {
		t.Errorf("flushed+fenced line lost: %d", va)
	}
	if vb != 0 {
		t.Errorf("unflushed line survived: %d", vb)
	}
}

func TestAllocBoundsAndAlignment(t *testing.T) {
	p := NewPool(Config{Size: 256})
	a1 := mustAlloc(p, 10)
	a2 := mustAlloc(p, 10)
	if a1%CachelineSize != 0 || a2%CachelineSize != 0 {
		t.Errorf("allocations not aligned: %d %d", a1, a2)
	}
	if a2 <= a1 {
		t.Errorf("allocations overlap: %d %d", a1, a2)
	}
	if _, err := p.Alloc(1 << 20); err == nil {
		t.Error("oversized alloc must fail")
	}
	if err := p.Store(250, make([]byte, 20)); err == nil {
		t.Error("out-of-bounds store must fail")
	}
}

func TestStats(t *testing.T) {
	p := newTestPool()
	a := mustAlloc(p, 128)
	p.Store64(a, 1)
	p.Store64(a+64, 2)
	p.Flush(a, 128) // two lines
	p.Fence()
	st := p.Stats()
	if st.Stores != 2 || st.Flushes != 1 || st.LinesFlushed != 2 || st.Fences != 1 {
		t.Errorf("stats = %+v", st)
	}
	if st.BytesWritten != 2*CachelineSize {
		t.Errorf("bytes written = %d", st.BytesWritten)
	}
	if st.SimulatedNs == 0 {
		t.Error("latency model not accounted")
	}
}

func TestPersistAll(t *testing.T) {
	p := newTestPool()
	a := mustAlloc(p, 8)
	p.Store64(a, 5)
	p.PersistAll()
	p.Crash()
	if v, _ := p.Load64(a); v != 5 {
		t.Errorf("PersistAll lost data: %d", v)
	}
}

// Property: for any op sequence, (1) a crash never reveals data that was
// never stored, and (2) every store whose line was flushed and fenced
// afterwards survives the crash.
func TestCrashConsistencyProperty(t *testing.T) {
	const slotsPerLine = CachelineSize / 8
	check := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		p := NewPool(Config{Size: 1 << 12})
		const slots = 32
		base := mustAlloc(p, slots*8)
		// The reference model works at cacheline granularity: flushing
		// one slot stages its whole line, and a staged line writes back
		// its *current* contents at the fence.
		persisted := make(map[int]uint64) // slot -> durable value
		written := make(map[int]uint64)   // slot -> last stored value
		staged := make(map[int]bool)      // line -> staged for write-back
		for op := 0; op < 200; op++ {
			switch r.Intn(4) {
			case 0, 1:
				i := r.Intn(slots)
				v := r.Uint64()
				p.Store64(base+i*8, v)
				written[i] = v
			case 2:
				i := r.Intn(slots)
				p.Flush(base+i*8, 8)
				staged[i/slotsPerLine] = true
			case 3:
				p.Fence()
				for l := range staged {
					for j := l * slotsPerLine; j < (l+1)*slotsPerLine && j < slots; j++ {
						if v, ok := written[j]; ok {
							persisted[j] = v
						}
					}
				}
				staged = map[int]bool{}
			}
		}
		p.Crash()
		for i, want := range persisted {
			got, _ := p.Load64(base + i*8)
			if got != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestCrashIdempotent(t *testing.T) {
	p := newTestPool()
	a := mustAlloc(p, 16)
	p.Store(a, []byte("hello wo"))
	p.Flush(a, 8)
	p.Fence()
	p.Crash()
	p.Crash()
	b, _ := p.Load(a, 8)
	if !bytes.Equal(b, []byte("hello wo")) {
		t.Errorf("double crash corrupted data: %q", b)
	}
}

// mustAlloc is a test helper: allocation failure on these fixed-size
// test pools is a test bug.
func mustAlloc(p *Pool, size int) int {
	a, err := p.Alloc(size)
	if err != nil {
		panic(err)
	}
	return a
}

// TestPoolWordAccessAllocs requires the word accessors to run without a
// heap allocation: the apps walk their chains with Load64 on every op.
func TestPoolWordAccessAllocs(t *testing.T) {
	p := newTestPool()
	a := mustAlloc(p, 64)
	for name, f := range map[string]func(){
		"Load64":        func() { p.Load64(a) },
		"DurableLoad64": func() { p.DurableLoad64(a) },
		"Store64":       func() { p.Store64(a, 7) },
	} {
		if n := testing.AllocsPerRun(100, f); n != 0 {
			t.Errorf("%s: %v allocations per call, want 0", name, n)
		}
	}
}
