package crashsim

import (
	"fmt"
	"testing"

	"deepmc/internal/faultinj"
	"deepmc/internal/interp"
	"deepmc/internal/ir"
	"deepmc/internal/pmcontract"
)

// TestContractDomainEliminatesUnflushedWindow: the commit-protocol bug
// (data never flushed before the flag claims it durable) has
// inconsistent crash states under x86 but none under a CXL persistence
// domain — the data store is durable at store time, so the flag can
// never be durable without it.
func TestContractDomainEliminatesUnflushedWindow(t *testing.T) {
	m := ir.MustParse(commitProtocol(false))
	x86, err := EnumerateOpts(m, "main", commitInvariant, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if x86.Clean() {
		t.Fatalf("x86: the unflushed-write bug produced no violation:\n%s", x86)
	}
	cxl, err := EnumerateOpts(m, "main", commitInvariant, Options{
		Workers:  1,
		Contract: pmcontract.CXLContract(pmcontract.WholeDomain()),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !cxl.Clean() {
		t.Fatalf("cxl domain: store-time durability still produced a violation:\n%s", cxl)
	}
	if cxl.CrashesRun == 0 {
		t.Errorf("cxl enumeration vacuous: %+v", cxl)
	}
}

// TestContractDomainPrunedMatchesUnpruned: pruned enumeration under the
// CXL contract reaches the same verdict as the unpruned one (the
// domain-state key keeps dedup sound).
func TestContractDomainPrunedMatchesUnpruned(t *testing.T) {
	for _, fixed := range []bool{false, true} {
		m := ir.MustParse(commitProtocol(fixed))
		c := pmcontract.CXLContract(pmcontract.WholeDomain())
		plain, err := EnumerateOpts(m, "main", commitInvariant, Options{Workers: 1, Contract: c})
		if err != nil {
			t.Fatal(err)
		}
		pruned, err := EnumerateOpts(m, "main", commitInvariant, Options{Workers: 1, Contract: c, Prune: true})
		if err != nil {
			t.Fatal(err)
		}
		if plain.Clean() != pruned.Clean() {
			t.Errorf("fixed=%v: pruned verdict diverges: plain %v, pruned %v", fixed, plain.Clean(), pruned.Clean())
		}
	}
}

// TestContractEmptyDomainMatchesX86: an empty-domain CXL contract
// enumerates byte-identically to x86, including under fault injection —
// the contract-equivalence property at the crash-simulation layer.
func TestContractEmptyDomainMatchesX86(t *testing.T) {
	faults := &faultinj.Config{Classes: faultinj.AllClasses(), Rate: 1, Seed: 11}
	for _, src := range []string{commitProtocol(false), commitProtocol(true), missingBarrier(false)} {
		m := ir.MustParse(src)
		x86, err := EnumerateOpts(m, "main", commitInvariant, Options{Workers: 1, Prune: true, Faults: faults})
		if err != nil {
			t.Fatal(err)
		}
		cxl, err := EnumerateOpts(m, "main", commitInvariant, Options{
			Workers: 1, Prune: true, Faults: faults,
			Contract: pmcontract.CXLContract(pmcontract.Domain{}),
		})
		if err != nil {
			t.Fatal(err)
		}
		if x86.Detail() != cxl.Detail() {
			t.Errorf("empty-domain CXL diverges from x86:\n--- x86:\n%s\n--- cxl:\n%s", x86.Detail(), cxl.Detail())
		}
		if x86.FaultLog != cxl.FaultLog {
			t.Errorf("fault logs diverge:\n--- x86:\n%s\n--- cxl:\n%s", x86.FaultLog, cxl.FaultLog)
		}
	}
}

// TestContractDomainFaultImmunity: with the whole heap in a persistence
// domain no fault class can fire during planning.
func TestContractDomainFaultImmunity(t *testing.T) {
	m := ir.MustParse(commitProtocol(true))
	res, err := EnumerateOpts(m, "main", commitInvariant, Options{
		Workers: 1, Prune: true,
		Faults:   &faultinj.Config{Classes: faultinj.AllClasses(), Rate: 1, Seed: 5},
		Contract: pmcontract.CXLContract(pmcontract.WholeDomain()),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Injections != 0 {
		t.Errorf("faults fired inside the persistence domain:\n%s", res.FaultLog)
	}
	if !res.Clean() {
		t.Errorf("fixed protocol violated under domain: %s", res)
	}
}

// TestDeviceImageRollsBack drives the nvmState hooks directly: a device
// failure rolls uncommitted domain words back to their barrier-committed
// values while committed ones survive, and the host-crash image keeps
// everything.
func TestDeviceImageRollsBack(t *testing.T) {
	s := newNVMState(pmcontract.CXLContract(pmcontract.WholeDomain()))
	obj := &interp.Object{ID: 1, Persistent: true, Slots: make([]interp.Val, 2)}
	obj.Slots[0].I = 10
	s.OnWrite(obj, 0, 8, &ir.Site{Func: "f", File: "t.pir", Line: 1})
	s.OnFence(&ir.Site{Func: "f", File: "t.pir", Line: 2}) // commits word 0 = 10
	obj.Slots[0].I = 20
	obj.Slots[1].I = 30
	s.OnWrite(obj, 0, 16, &ir.Site{Func: "f", File: "t.pir", Line: 3}) // both uncommitted

	host := s.image()
	if got := host.Load(1, 0); got != 20 {
		t.Errorf("host image word 0 = %d, want 20 (domain stores durable at store time)", got)
	}
	if got := host.Load(1, 8); got != 30 {
		t.Errorf("host image word 8 = %d, want 30", got)
	}
	dev := s.deviceImage()
	if got := dev.Load(1, 0); got != 10 {
		t.Errorf("device image word 0 = %d, want barrier-committed 10", got)
	}
	if got := dev.Load(1, 8); got != 0 {
		t.Errorf("device image word 8 = %d, want 0 (never committed)", got)
	}
	// Checking outcomes against an invariant that requires the committed
	// value exposes the missing barrier as a device-failure violation.
	err := s.checkOutcomes(func(im *Image) error {
		if v := im.Load(1, 0); v != 20 && v != 0 && v != 10 {
			return fmt.Errorf("impossible value %d", v)
		}
		if im.Load(1, 8) == 30 && im.Load(1, 0) != 20 {
			return fmt.Errorf("word 8 durable without word 0's final value")
		}
		return nil
	}, 1)
	if err != nil {
		t.Errorf("outcome check failed unexpectedly: %v", err)
	}
}
