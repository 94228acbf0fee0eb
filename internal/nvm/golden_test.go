package nvm

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"deepmc/internal/faultinj"
	"deepmc/internal/pmcontract"
)

var update = flag.Bool("update", false, "rewrite the golden files")

// goldenPools are the pool kinds the golden drives: x86, a CXL pool
// whose persistence domain is the whole pool, and a CXL pool with an
// empty domain (which must behave like x86 apart from fence latency).
var goldenPools = []struct {
	name string
	open func(Config) *Pool
}{
	{"x86", NewPool},
	{"cxl-whole", func(c Config) *Pool { return NewCXLPool(c, pmcontract.WholeDomain()) }},
	{"cxl-empty", func(c Config) *Pool { return NewCXLPool(c, pmcontract.Domain{}) }},
}

// goldenFaults are the fault settings: none, each class alone at rate
// 1, and every class at rate 0.5.
var goldenFaults = []struct {
	name string
	cfg  *faultinj.Config
}{
	{"none", nil},
	{"torn", &faultinj.Config{Classes: []faultinj.Class{faultinj.TornWrite}, Rate: 1, Seed: 42}},
	{"dropped", &faultinj.Config{Classes: []faultinj.Class{faultinj.DroppedFlush}, Rate: 1, Seed: 42}},
	{"reordered", &faultinj.Config{Classes: []faultinj.Class{faultinj.ReorderedPersist}, Rate: 1, Seed: 42}},
	{"delayed", &faultinj.Config{Classes: []faultinj.Class{faultinj.DelayedDrain}, Rate: 1, Seed: 42}},
	{"all", &faultinj.Config{Classes: faultinj.AllClasses(), Rate: 0.5, Seed: 7}},
}

// goldenStreams is the number of seeded op streams per (pool, faults)
// pair; even seeds use a line-multiple pool size, odd seeds one whose
// last line is partial.
const goldenStreams = 6

// TestPoolGolden pins the pool's observable behaviour — stats, fault
// logs, load results and the durable and volatile images after every
// crash and at the end — over seeded single-threaded op streams.
// Regenerate with: go test ./internal/nvm -run TestPoolGolden -update
func TestPoolGolden(t *testing.T) {
	var b strings.Builder
	for _, pk := range goldenPools {
		for _, fk := range goldenFaults {
			for seed := int64(1); seed <= goldenStreams; seed++ {
				size := 1024
				if seed%2 == 1 {
					size = 1000
				}
				fmt.Fprintf(&b, "== pool=%s faults=%s seed=%d size=%d\n", pk.name, fk.name, seed, size)
				driveGolden(&b, pk.open(Config{Size: size, Faults: fk.cfg}), seed)
			}
		}
	}
	got := b.String()
	path := filepath.Join("testdata", "pool.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("pool golden differs at line %d:\n got: %s\nwant: %s", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("pool golden differs in length: got %d lines, want %d", len(gl), len(wl))
	}
}

// driveGolden runs one seeded op stream against p and renders what it
// observes into b.
func driveGolden(b *strings.Builder, p *Pool, seed int64) {
	r := rand.New(rand.NewSource(seed))
	size := p.Size()
	loads := sha256.New()
	note := func(op string, err error) {
		if err != nil {
			fmt.Fprintf(b, "%s: %v\n", op, err)
		}
	}
	// Fixed edge cases first: a zero-size store at offset 0, a store
	// straddling a line, zero-size flushes, and a flush at the pool end.
	note("store0", p.Store(0, nil))
	note("straddle", p.Store(60, []byte("0123456789abcdef")))
	note("flush0", p.Flush(0, 0))
	note("flushend", p.Flush(size, 0))
	p.Fence()
	for op := 0; op < 160; op++ {
		switch k := r.Intn(20); {
		case k < 6:
			n := r.Intn(101)
			addr := r.Intn(size - n + 1)
			if k == 0 {
				// Straddle a line boundary when the store is wide enough.
				addr = (r.Intn(size/CachelineSize)+1)*CachelineSize - n/2
				if addr < 0 || addr+n > size {
					addr = 0
				}
			}
			data := make([]byte, n)
			r.Read(data)
			note(fmt.Sprintf("op %d store %d+%d", op, addr, n), p.Store(addr, data))
		case k < 9:
			note(fmt.Sprintf("op %d store64", op), p.Store64(8*r.Intn(size/8), r.Uint64()))
		case k < 13:
			n := r.Intn(3) * r.Intn(130)
			addr := r.Intn(size - n + 1)
			note(fmt.Sprintf("op %d flush %d+%d", op, addr, n), p.Flush(addr, n))
			if k == 9 {
				// Flush the same range again: its lines are already staged.
				note(fmt.Sprintf("op %d reflush", op), p.Flush(addr, n))
			}
		case k < 16:
			p.Fence()
		case k < 17:
			n := r.Intn(64)
			data, err := p.Load(r.Intn(size-n+1), n)
			note(fmt.Sprintf("op %d load", op), err)
			loads.Write(data)
		case k < 18:
			if r.Intn(2) == 0 {
				p.Crash()
				fmt.Fprintf(b, "op %d crash: %s\n  %s\n", op, goldenImages(p), goldenStats(p.Stats()))
			} else {
				p.CrashDevice()
				fmt.Fprintf(b, "op %d crash-device: %s\n  %s\n", op, goldenImages(p), goldenStats(p.Stats()))
			}
		case k < 19:
			p.PersistAll()
			fmt.Fprintf(b, "op %d persist-all: %s\n  %s\n", op, goldenImages(p), goldenStats(p.Stats()))
		default:
			if r.Intn(4) == 0 {
				p.ResetStats()
				fmt.Fprintf(b, "op %d reset-stats\n", op)
			} else {
				_, err := p.Alloc(r.Intn(200))
				note(fmt.Sprintf("op %d alloc", op), err)
			}
		}
	}
	fmt.Fprintf(b, "stats: %s\n", goldenStats(p.Stats()))
	fmt.Fprintf(b, "loads: %x\n", loads.Sum(nil)[:8])
	fmt.Fprintf(b, "end: %s\n", goldenImages(p))
	fmt.Fprintf(b, "faultlog:\n%s", p.FaultLog())
}

// goldenStats renders every Stats field by name.
func goldenStats(s Stats) string {
	return fmt.Sprintf("Stores=%d Loads=%d Flushes=%d LinesFlushed=%d Fences=%d BytesWritten=%d "+
		"Injections=%d SimulatedNs=%d AllocatedByte=%d DomainStores=%d DomainFlushes=%d DomainCommits=%d",
		s.Stores, s.Loads, s.Flushes, s.LinesFlushed, s.Fences, s.BytesWritten,
		s.Injections, s.SimulatedNs, s.AllocatedByte, s.DomainStores, s.DomainFlushes, s.DomainCommits)
}

// goldenImages hashes the durable and volatile images.  The volatile
// image is read through the internal slice so that hashing it does not
// count as a load.
func goldenImages(p *Pool) string {
	durable, err := p.DurableLoad(0, p.Size())
	if err != nil {
		return err.Error()
	}
	p.mu.Lock()
	volatile := sha256.Sum256(p.current)
	p.mu.Unlock()
	d := sha256.Sum256(durable)
	return fmt.Sprintf("durable=%x volatile=%x", d[:8], volatile[:8])
}
