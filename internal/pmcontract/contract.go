// Package pmcontract makes the hardware persistency contract a
// first-class value instead of an assumption baked into every layer.
//
// DeepMC's Table 4/5 rules were derived from one contract — x86
// clwb/sfence over volatile cachelines — but "Rethinking PM Crash
// Consistency in the CXL Era" shows the contract changes when PM hangs
// off CXL: persist barriers become global, devices can export a
// persistence domain in which stores are durable at store time (an
// eADR-style energy reserve drains them on power loss), and host and
// device fail independently.  A Contract captures exactly the
// predicates the rest of the stack keys on:
//
//   - HasDomain: is the persistent heap in a device persistence domain,
//     so that stores are durable at store time and need no flush, and
//     torn writes and dropped flushes cannot happen?
//   - EffectiveID: which rule set applies?  A CXL contract with an
//     empty domain follows the x86 rules.
//   - Key: the fingerprint two contracts share exactly when they yield
//     the same crash images and diagnostics.
//
// The fence is a staged-line drain under x86 and a global persist
// barrier under CXL, where it also commits the domain's device-side
// buffer.  With a domain, a host crash keeps every domain write, and a
// device failure loses those buffered since the last barrier.
//
// The zero Contract value is the x86 contract, so existing
// configuration structs gain contract awareness without breaking any
// caller.
//
// The package is dependency-free by design: nvm, interp, dynamic,
// crashsim, faultinj, passes and the checker all import it, so it must
// sit below every one of them.
package pmcontract

import (
	"fmt"
	"strings"
)

// ID names a hardware persistency contract.
type ID uint8

const (
	// X86 is the classic contract: stores land in volatile cachelines,
	// Flush (clwb) stages a line, Fence (sfence) drains staged lines to
	// the medium, and a crash discards everything dirty or staged.  The
	// zero value — so untouched configs keep their old behavior.
	X86 ID = iota
	// CXL is the CXL-era contract: fences are global persist barriers,
	// and an optional device-side persistence domain makes stores in it
	// durable at store time with no flush.  Host and device fail
	// independently: a device failure rolls the domain back to its last
	// barrier-committed image.
	CXL
)

// Parse maps a -pmodel flag value to an ID.
func Parse(s string) (ID, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "", "x86":
		return X86, nil
	case "cxl":
		return CXL, nil
	}
	return X86, fmt.Errorf("pmcontract: unknown persistency model %q (want x86|cxl)", s)
}

func (id ID) String() string {
	switch id {
	case X86:
		return "x86"
	case CXL:
		return "cxl"
	}
	return fmt.Sprintf("pmodel(%d)", uint8(id))
}

// Domain is a device-side persistence domain: under the CXL contract,
// stores inside it are durable at store time.  It is whole or empty: a
// device either puts the entire persistent heap in its domain (the CXL
// deployment every layer models) or has none.  The zero Domain is
// empty.
type Domain struct {
	Whole bool
}

// WholeDomain covers the entire persistent heap.
func WholeDomain() Domain { return Domain{Whole: true} }

// Empty reports whether the domain covers nothing.
func (d Domain) Empty() bool { return !d.Whole }

func (d Domain) String() string {
	if d.Whole {
		return "whole"
	}
	return "empty"
}

// Contract is one hardware persistency contract: an ID plus its
// configuration.  The zero value is the x86 contract.
type Contract struct {
	ID ID
	// Domain is the device-side persistence domain (CXL only; ignored
	// under x86).
	Domain Domain
}

// X86Contract returns the classic clwb/sfence contract.
func X86Contract() Contract { return Contract{ID: X86} }

// CXLContract returns the CXL-era contract with the given persistence
// domain.  An empty domain yields a contract that is observationally
// identical to x86 for crash images and diagnostics (the equivalence
// the property tests pin down); only the barrier's scope and cost
// differ.
func CXLContract(d Domain) Contract { return Contract{ID: CXL, Domain: d} }

// ParseContract maps a -pmodel flag value to a ready contract: "x86"
// is X86Contract, "cxl" is CXLContract over the whole heap (the
// deployment the CXL papers assume when no layout is given).
func ParseContract(s string) (Contract, error) {
	id, err := Parse(s)
	if err != nil {
		return Contract{}, err
	}
	if id == CXL {
		return CXLContract(WholeDomain()), nil
	}
	return X86Contract(), nil
}

// Name returns the contract's -pmodel name.
func (c Contract) Name() string { return c.ID.String() }

// HasDomain reports whether the contract exposes a non-empty
// persistence domain.
func (c Contract) HasDomain() bool { return c.ID == CXL && !c.Domain.Empty() }

// EffectiveID returns the ID whose RULE SET applies to this contract: a
// CXL contract without a persistence domain is observationally
// identical to x86 — stores need flushes, flushes need barriers — so
// the x86-derived passes (and none of the domain-keyed ones) are the
// applicable set.  Pass-applicability decisions must key on this, not
// on the raw ID, or the empty-domain equivalence property breaks.
func (c Contract) EffectiveID() ID {
	if c.ID == CXL && c.Domain.Empty() {
		return X86
	}
	return c.ID
}

// Key returns a stable fingerprint string for cache keys and schedule
// attribution.  Two contracts with equal Keys produce identical crash
// images and diagnostics for the same program.
func (c Contract) Key() string {
	return fmt.Sprintf("pm=%s;dom=%s", c.ID, c.Domain)
}
