// Package passes is the checking-rule registry: every DeepMC diagnostic
// — the Table 4 persistency-model rules, the Table 5 performance rules,
// and the dynamic happens-before detectors — is a self-describing Pass
// with a stable ID, a model-applicability set, a severity and a doc
// string.  The pass manager in internal/core consults the registry to
// resolve -passes / -disable-pass selections into the rule sets the
// static scanner and the dynamic runtime actually evaluate, and the
// analysis cache folds the registry version plus the enabled set into
// its content hashes, so adding, removing or toggling a pass invalidates
// exactly the verdicts it could change.
//
// Adding a rule is a one-file change: append a Pass literal to
// registry.go (new code, never a reassigned one) and emit the rule from
// the scanner or runtime; listing, selection, suppression and cache
// invalidation follow from the registry entry.
package passes

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strings"
	"sync"

	"deepmc/internal/pmcontract"
	"deepmc/internal/report"
)

// Kind separates the two analysis families a pass runs in.
type Kind uint8

const (
	// Static passes scan the collected traces offline.
	Static Kind = iota
	// Dynamic passes run inside the instrumented runtime.
	Dynamic
)

// String renders the kind for listings.
func (k Kind) String() string {
	if k == Dynamic {
		return "dynamic"
	}
	return "static"
}

// ModelSet is a bitmask of the persistency models a pass applies to.
type ModelSet uint8

const (
	MStrict ModelSet = 1 << iota
	MEpoch
	MStrand
	// MAll marks model-independent passes.
	MAll = MStrict | MEpoch | MStrand
)

// Has reports whether the set contains the model.
func (s ModelSet) Has(m ModelSet) bool { return s&m != 0 }

// String renders the set as a comma list in strict,epoch,strand order.
func (s ModelSet) String() string {
	var parts []string
	if s.Has(MStrict) {
		parts = append(parts, "strict")
	}
	if s.Has(MEpoch) {
		parts = append(parts, "epoch")
	}
	if s.Has(MStrand) {
		parts = append(parts, "strand")
	}
	if len(parts) == 0 {
		return "none"
	}
	return strings.Join(parts, ",")
}

// ContractSet is a bitmask of the hardware persistency contracts a
// pass applies to.  Orthogonal to ModelSet: models (strict/epoch/
// strand) describe the program's ordering discipline, contracts
// describe what the hardware promises about durability.
type ContractSet uint8

const (
	CX86 ContractSet = 1 << iota
	CCXL
	// CBoth marks contract-independent passes.  The zero value reads as
	// CBoth too (see normalize), so pre-contract Pass literals keep
	// applying everywhere.
	CBoth = CX86 | CCXL
)

// normalize maps the zero value to CBoth.
func (s ContractSet) normalize() ContractSet {
	if s == 0 {
		return CBoth
	}
	return s
}

// HasContract reports whether the set covers the contract.
func (s ContractSet) HasContract(id pmcontract.ID) bool {
	s = s.normalize()
	if id == pmcontract.CXL {
		return s&CCXL != 0
	}
	return s&CX86 != 0
}

// String renders the set for the `deepmc passes` CONTRACTS column.
func (s ContractSet) String() string {
	switch s.normalize() {
	case CX86:
		return "x86"
	case CCXL:
		return "cxl"
	default:
		return "both"
	}
}

// Severity grades a pass's findings.
type Severity uint8

const (
	// SevError marks model violations: the program can lose or corrupt
	// durable state across a crash.
	SevError Severity = iota
	// SevPerf marks performance bugs: correct but needlessly slow
	// persistence.
	SevPerf
)

// String renders the severity for listings.
func (s Severity) String() string {
	if s == SevPerf {
		return "perf"
	}
	return "error"
}

// Pass is one self-describing checking rule.
type Pass struct {
	// ID is the stable machine-readable code (report.Code* constant);
	// it doubles as the diagnostic code on every warning the pass emits.
	ID string
	// Rule is the report rule the pass's warnings carry.
	Rule report.Rule
	// Kind says whether the pass runs statically or dynamically.
	Kind Kind
	// Models is the persistency-model applicability set.
	Models ModelSet
	// Contracts is the hardware-contract applicability set (zero value
	// = both).  DMC-S03 (missing-persist-barrier) is x86-only: under
	// CXL its durability obligation re-keys to the global persist
	// barrier, checked by DMC-X02.  The DMC-Xxx passes are CXL-only.
	Contracts ContractSet
	// Severity grades the findings.
	Severity Severity
	// Doc is a one-line description for `deepmc passes`.
	Doc string
}

// schemaVersion versions the registry semantics themselves; bump it when
// the meaning of an existing pass changes (message wording, detection
// scope), so content-hashed caches of older binaries cannot be replayed.
// passes-v2: passes carry a hardware-contract applicability set, DMC-S03
// is scoped to x86, and the CXL-only DMC-Xxx passes exist.
const schemaVersion = "passes-v2"

// All returns every registered pass, ordered by ID.
func All() []Pass {
	out := append([]Pass(nil), registry...)
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// ByID returns the pass with the given ID.
func ByID(id string) (Pass, bool) {
	for _, p := range registry {
		if p.ID == id {
			return p, true
		}
	}
	return Pass{}, false
}

// StaticByRule returns the static pass emitting the given rule.
func StaticByRule(r report.Rule) (Pass, bool) {
	for _, p := range registry {
		if p.Kind == Static && p.Rule == r {
			return p, true
		}
	}
	return Pass{}, false
}

// ResolveEnabled turns an explicit selection (only; empty = all) and a
// disable list into the enabled-pass set.  Unknown IDs are errors, so a
// typo in -passes/-disable-pass cannot silently run the wrong rule set.
func ResolveEnabled(only, disable []string) (map[string]bool, error) {
	enabled := make(map[string]bool, len(registry))
	if len(only) == 0 {
		for _, p := range registry {
			enabled[p.ID] = true
		}
	} else {
		for _, id := range only {
			if _, ok := ByID(id); !ok {
				return nil, fmt.Errorf("passes: unknown pass %q (see `deepmc passes`)", id)
			}
			enabled[id] = true
		}
	}
	for _, id := range disable {
		if _, ok := ByID(id); !ok {
			return nil, fmt.Errorf("passes: unknown pass %q (see `deepmc passes`)", id)
		}
		delete(enabled, id)
	}
	return enabled, nil
}

// ResolveEnabledFor is ResolveEnabled restricted to one hardware
// contract.  Passes inapplicable to the contract are dropped from the
// default-all set silently (they simply do not exist there), but an
// explicit -passes or -disable-pass mention of one is an error — a
// selection that cannot take effect must not silently no-op.
func ResolveEnabledFor(only, disable []string, contract pmcontract.ID) (map[string]bool, error) {
	for _, sel := range [][]string{only, disable} {
		for _, id := range sel {
			p, ok := ByID(id)
			if !ok {
				return nil, fmt.Errorf("passes: unknown pass %q (see `deepmc passes`)", id)
			}
			if !p.Contracts.HasContract(contract) {
				return nil, fmt.Errorf("passes: pass %s (%s) is inapplicable under -pmodel %s (contracts: %s)",
					id, p.Rule, contract, p.Contracts)
			}
		}
	}
	enabled, err := ResolveEnabled(only, disable)
	if err != nil {
		return nil, err
	}
	for _, p := range registry {
		if !p.Contracts.HasContract(contract) {
			delete(enabled, p.ID)
		}
	}
	return enabled, nil
}

// Version fingerprints the registry plus an enabled set: a hex digest
// over the schema version, every registered pass's identity, and the
// sorted enabled IDs.  Cache keys include it, so toggling a pass — or
// shipping a binary with a changed rule set — invalidates exactly the
// verdicts that could differ.
func Version(enabled map[string]bool) string {
	h := sha256.New()
	h.Write(registryText())
	on := make([]string, 0, len(enabled))
	for id, ok := range enabled {
		if ok {
			on = append(on, id)
		}
	}
	sort.Strings(on)
	fmt.Fprintf(h, "enabled:%s\n", strings.Join(on, ","))
	return hex.EncodeToString(h.Sum(nil))
}

// registryText is Version's rendering of the schema version and every
// registered pass, made once per process: the registry is constant.
var registryText = sync.OnceValue(func() []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, "%s\n", schemaVersion)
	for _, p := range All() {
		fmt.Fprintf(&b, "%s|%s|%s|%s|%s|%s\n", p.ID, p.Rule, p.Kind, p.Models, p.Contracts, p.Severity)
	}
	return b.Bytes()
})

// DisabledStaticRules maps an enabled set to the static rules the
// scanner must not emit.  Nil input (no pass selection) disables
// nothing.
func DisabledStaticRules(enabled map[string]bool) map[report.Rule]bool {
	if enabled == nil {
		return nil
	}
	out := make(map[report.Rule]bool)
	for _, p := range registry {
		if p.Kind == Static && !enabled[p.ID] {
			out[p.Rule] = true
		}
	}
	if len(out) == 0 {
		return nil
	}
	return out
}

// DisabledDynamicCodes maps an enabled set to the dynamic detector codes
// the runtime must not emit.  Nil input disables nothing.
func DisabledDynamicCodes(enabled map[string]bool) map[string]bool {
	if enabled == nil {
		return nil
	}
	out := make(map[string]bool)
	for _, p := range registry {
		if p.Kind == Dynamic && !enabled[p.ID] {
			out[p.ID] = true
		}
	}
	if len(out) == 0 {
		return nil
	}
	return out
}

// List renders the registry as the `deepmc passes` table.
func List() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-9s %-8s %-20s %-9s %-6s %-30s %s\n",
		"ID", "KIND", "MODELS", "CONTRACTS", "SEV", "RULE", "DESCRIPTION")
	for _, p := range All() {
		fmt.Fprintf(&b, "%-9s %-8s %-20s %-9s %-6s %-30s %s\n",
			p.ID, p.Kind, p.Models, p.Contracts, p.Severity, p.Rule, p.Doc)
	}
	return b.String()
}
