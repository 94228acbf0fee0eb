package nvm

import (
	"bytes"
	"testing"

	"deepmc/internal/faultinj"
	"deepmc/internal/pmcontract"
)

// TestCXLDomainAutoPersist: an in-domain store survives a host/power
// crash with no flush or fence at all.
func TestCXLDomainAutoPersist(t *testing.T) {
	p := NewCXLPool(Config{Size: 1 << 12}, pmcontract.WholeDomain())
	if err := p.Store64(0, 0xdeadbeef); err != nil {
		t.Fatal(err)
	}
	p.Crash()
	v, err := p.Load64(0)
	if err != nil || v != 0xdeadbeef {
		t.Fatalf("in-domain store lost across host crash: %x, %v", v, err)
	}
	st := p.Stats()
	if st.DomainStores != 1 {
		t.Errorf("DomainStores = %d, want 1", st.DomainStores)
	}
}

// TestCXLDeviceFailureRollsBack: a device failure discards domain
// writes buffered since the last global persist barrier; a barrier
// commits them.
func TestCXLDeviceFailureRollsBack(t *testing.T) {
	p := NewCXLPool(Config{Size: 1 << 12}, pmcontract.WholeDomain())
	if err := p.Store64(0, 1); err != nil {
		t.Fatal(err)
	}
	p.Fence() // commits the buffered write
	if err := p.Store64(0, 2); err != nil {
		t.Fatal(err)
	}
	if err := p.Store64(64, 3); err != nil {
		t.Fatal(err)
	}
	p.CrashDevice()
	v, _ := p.Load64(0)
	if v != 1 {
		t.Errorf("device failure did not roll back to the committed value: got %d, want 1", v)
	}
	w, _ := p.Load64(64)
	if w != 0 {
		t.Errorf("never-committed domain write survived device failure: got %d, want 0", w)
	}
	st := p.Stats()
	if st.DomainCommits == 0 {
		t.Errorf("barrier committed no domain lines: %+v", st)
	}
}

// TestCXLDomainFlushIsNoOp: flushing in-domain data stages nothing and
// is accounted as a domain flush.
func TestCXLDomainFlushIsNoOp(t *testing.T) {
	p := NewCXLPool(Config{Size: 1 << 12}, pmcontract.WholeDomain())
	if err := p.Store64(0, 7); err != nil {
		t.Fatal(err)
	}
	if err := p.Flush(0, 8); err != nil {
		t.Fatal(err)
	}
	st := p.Stats()
	if st.DomainFlushes != 1 || st.LinesFlushed != 0 {
		t.Errorf("in-domain flush staged lines: %+v", st)
	}
}

// TestCXLDomainFaultImmunity: with the whole heap in-domain, no fault
// class can fire — torn writes and dropped flushes are contractually
// impossible (stores are durable whole at store time, there is no clwb
// to drop), and reordered/delayed drains have no staged lines to act
// on.
func TestCXLDomainFaultImmunity(t *testing.T) {
	p := NewCXLPool(Config{
		Size:   1 << 12,
		Faults: &faultinj.Config{Classes: faultinj.AllClasses(), Rate: 1, Seed: 1},
	}, pmcontract.WholeDomain())
	buf := make([]byte, 64)
	for i := range buf {
		buf[i] = byte(i)
	}
	for round := 0; round < 8; round++ {
		if err := p.Store(128, buf); err != nil {
			t.Fatal(err)
		}
		if err := p.Flush(128, 64); err != nil {
			t.Fatal(err)
		}
		p.Fence()
	}
	if st := p.Stats(); st.Injections != 0 {
		t.Errorf("faults fired inside the persistence domain: %+v\nlog:\n%s", st, p.FaultLog())
	}
}

// driveOps runs one mixed operation sequence against a pool.
func driveOps(t *testing.T, p *Pool) {
	t.Helper()
	buf := make([]byte, 48)
	for i := range buf {
		buf[i] = byte(i * 3)
	}
	for round := 0; round < 6; round++ {
		if err := p.Store(int(64*round), buf); err != nil {
			t.Fatal(err)
		}
		if err := p.Store64(512+8*round, uint64(round)); err != nil {
			t.Fatal(err)
		}
		if round%2 == 0 {
			if err := p.Flush(int(64*round), 48); err != nil {
				t.Fatal(err)
			}
		}
		if round%3 == 0 {
			p.Fence()
		}
	}
	p.Crash()
}

// TestCXLEmptyDomainMatchesX86: an empty-domain CXL pool driven by the
// same operation sequence as an x86 pool produces a byte-identical
// crash image and fault log — the contract-equivalence property at the
// pool layer.
func TestCXLEmptyDomainMatchesX86(t *testing.T) {
	faults := &faultinj.Config{Classes: faultinj.AllClasses(), Rate: 0.5, Seed: 42}
	x86 := NewPool(Config{Size: 1 << 12, Faults: faults})
	cxl := NewCXLPool(Config{Size: 1 << 12, Faults: faults}, pmcontract.Domain{})
	driveOps(t, x86)
	driveOps(t, cxl)
	a, err := x86.DurableLoad(0, 1<<12)
	if err != nil {
		t.Fatal(err)
	}
	b, err := cxl.DurableLoad(0, 1<<12)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Errorf("empty-domain CXL crash image diverges from x86")
	}
	if x86.FaultLog() != cxl.FaultLog() {
		t.Errorf("fault logs diverge:\nx86:\n%s\ncxl:\n%s", x86.FaultLog(), cxl.FaultLog())
	}
	if x86.FaultLog() == "" {
		t.Errorf("differential vacuous: no faults fired")
	}
}

// TestCXLCrashDeviceOnX86IsCrash: without a domain, CrashDevice is just
// Crash — there is no device buffer to lose.
func TestCXLCrashDeviceOnX86IsCrash(t *testing.T) {
	p := NewPool(Config{Size: 1 << 12})
	if err := p.Store64(0, 5); err != nil {
		t.Fatal(err)
	}
	if err := p.Flush(0, 8); err != nil {
		t.Fatal(err)
	}
	p.Fence()
	if err := p.Store64(8, 6); err != nil {
		t.Fatal(err)
	}
	p.CrashDevice()
	if v, _ := p.Load64(0); v != 5 {
		t.Errorf("fenced write lost: %d", v)
	}
	if v, _ := p.Load64(8); v != 0 {
		t.Errorf("unflushed write survived: %d", v)
	}
}
