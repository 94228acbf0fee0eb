package nvm

import (
	"testing"

	"deepmc/internal/faultinj"
)

func faultedPool(classes []faultinj.Class, seed int64) *Pool {
	return NewPool(Config{Size: 1 << 16, Faults: &faultinj.Config{Classes: classes, Rate: 1, Seed: seed}})
}

// TestTornWritePartialDurability: a 32-byte store under torn-write
// injection persists some but not all of its granules immediately — a
// crash right after the store sees a mixed image, while the flushed and
// fenced path still yields the full value.
func TestTornWritePartialDurability(t *testing.T) {
	p := faultedPool([]faultinj.Class{faultinj.TornWrite}, 1)
	a, err := p.Alloc(32)
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 32)
	for i := range data {
		data[i] = byte(i + 1)
	}
	if err := p.Store(a, data); err != nil {
		t.Fatal(err)
	}
	if p.Stats().Injections == 0 {
		t.Fatal("rate-1 torn write never fired on a 32-byte store")
	}
	p.Crash()
	got, err := p.Load(a, 32)
	if err != nil {
		t.Fatal(err)
	}
	durable, zero := 0, 0
	for g := 0; g < 4; g++ {
		match := true
		for i := 0; i < 8; i++ {
			if got[g*8+i] != data[g*8+i] {
				match = false
			}
		}
		if match {
			durable++
		} else {
			zero++
		}
	}
	if durable == 0 || zero == 0 {
		t.Fatalf("torn store not partial: %d granules durable, %d lost", durable, zero)
	}
}

// TestTornWriteNeverTearsNarrowStores: 8-byte stores are single-granule
// and must be immune, keeping the corpus invariants' anchors atomic.
func TestTornWriteNeverTearsNarrowStores(t *testing.T) {
	p := faultedPool([]faultinj.Class{faultinj.TornWrite}, 1)
	a, _ := p.Alloc(8)
	for i := 0; i < 20; i++ {
		if err := p.Store64(a, uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if n := p.Stats().Injections; n != 0 {
		t.Fatalf("narrow stores tore %d times:\n%s", n, p.FaultLog())
	}
}

// TestDroppedFlushRetriedAtFence: a dropped clwb leaves the line
// un-staged (a crash loses it), but the next fence retries the flush
// and drains it — the post-fence durability contract is intact.
func TestDroppedFlushRetriedAtFence(t *testing.T) {
	p := faultedPool([]faultinj.Class{faultinj.DroppedFlush}, 2)
	a, _ := p.Alloc(8)
	p.Store64(a, 77)
	if err := p.Flush(a, 8); err != nil {
		t.Fatal(err)
	}
	if p.Stats().Injections == 0 {
		t.Fatal("rate-1 dropped flush never fired")
	}
	p.Fence()
	p.Crash()
	v, err := p.Load64(a)
	if err != nil {
		t.Fatal(err)
	}
	if v != 77 {
		t.Fatalf("flushed+fenced store lost under dropped-flush injection: %d", v)
	}
}

// TestDroppedFlushLostWithoutFence: before any fence, the dropped line
// really is more fragile than a staged one — a crash loses it even
// though the program issued clwb.  (Legal: clwb alone guarantees
// nothing until sfence.)
func TestDroppedFlushLostWithoutFence(t *testing.T) {
	p := faultedPool([]faultinj.Class{faultinj.DroppedFlush}, 2)
	a, _ := p.Alloc(8)
	p.Store64(a, 77)
	p.Flush(a, 8)
	p.Crash()
	if v, _ := p.Load64(a); v != 0 {
		t.Fatalf("dropped (unfenced) flush survived crash: %d", v)
	}
}

// TestReorderedAndDelayedKeepContract: with every class on, a flushed
// and fenced multi-line write is still fully durable afterwards —
// injection scrambles drain order and adds latency but never violates
// sfence.
func TestReorderedAndDelayedKeepContract(t *testing.T) {
	p := faultedPool(faultinj.AllClasses(), 3)
	const lines = 4
	addrs := make([]int, lines)
	for i := range addrs {
		a, err := p.Alloc(64)
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = a
		p.Store64(a, uint64(100+i))
		p.Flush(a, 8)
	}
	base := p.Stats().SimulatedNs
	p.Fence()
	if p.Stats().SimulatedNs <= base {
		t.Fatal("fence charged no simulated time")
	}
	p.Crash()
	for i, a := range addrs {
		v, err := p.DurableLoad64(a)
		if err != nil {
			t.Fatal(err)
		}
		if v != uint64(100+i) {
			t.Fatalf("line %d lost under reordered/delayed injection: %d", i, v)
		}
	}
	if p.Stats().Injections == 0 {
		t.Fatal("no injections across a multi-line fence at rate 1")
	}
}

// TestFaultLogDeterminism: identical operation sequences against
// identically seeded pools produce byte-identical fault logs; a
// different seed diverges.
func TestFaultLogDeterminism(t *testing.T) {
	drive := func(seed int64) string {
		p := faultedPool(faultinj.AllClasses(), seed)
		a, _ := p.Alloc(64)
		b, _ := p.Alloc(64)
		buf := make([]byte, 32)
		for i := 0; i < 10; i++ {
			buf[0] = byte(i)
			p.Store(a, buf)
			p.Store64(b, uint64(i))
			p.Flush(a, 32)
			p.Flush(b, 8)
			p.Fence()
		}
		return p.FaultLog()
	}
	l1, l2 := drive(5), drive(5)
	if l1 != l2 {
		t.Fatalf("same seed, different logs:\n%s\nvs\n%s", l1, l2)
	}
	if l1 == "" {
		t.Fatal("rate-1 run injected nothing")
	}
	if drive(6) == l1 {
		t.Fatal("different seeds produced identical logs")
	}
}

// TestNoFaultsNoOverheadPath: a pool without a fault config reports an
// empty log and zero injections — the hot path is untouched.
func TestNoFaultsNoOverheadPath(t *testing.T) {
	p := NewPool(Config{})
	a, _ := p.Alloc(64)
	p.Store64(a, 1)
	p.Flush(a, 8)
	p.Fence()
	if p.FaultLog() != "" || p.Stats().Injections != 0 {
		t.Fatal("fault machinery active without a config")
	}
}
