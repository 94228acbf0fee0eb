// Package report defines the warning model shared by DeepMC's static and
// dynamic checkers, plus aggregation and formatting helpers used by the
// CLI and the table-regeneration benches.
//
// Every diagnostic carries a stable machine-readable code (DMC-Sxx for
// static passes, DMC-Dxx for dynamic detectors) alongside its rule name;
// the codes double as the pass IDs of the internal/passes registry and
// as suppression keys in the checker's filter database.
package report

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"
)

// Class separates the paper's two bug families.
type Class uint8

const (
	// Violation is a persistency model violation (Table 4) — affects
	// crash consistency.
	Violation Class = iota
	// Performance is a performance bug (Table 5) — unnecessary persistent
	// operations.
	Performance
)

// String renders the class as in the paper's tables.
func (c Class) String() string {
	if c == Violation {
		return "Model Violation"
	}
	return "Perf. Overhead"
}

// Rule identifies a checking rule.
type Rule string

// The checking rules of Table 4 (model violations) and Table 5
// (performance bugs).
const (
	// Strict/epoch: a persistent write never covered by a flush or an
	// undo-log entry before its barrier/transaction end.
	RuleUnflushedWrite Rule = "unflushed-write"
	// Strict: one persist barrier made more than one write durable at
	// once; epoch: writes of multiple epochs persisted by one barrier.
	RuleMultipleWritesAtOnce Rule = "multiple-writes-at-once"
	// Strict: a flush with no following persist barrier before the next
	// persistent operation or transaction.
	RuleMissingBarrier Rule = "missing-persist-barrier"
	// Epoch: consecutive epochs not separated by a persist barrier.
	RuleMissingBarrierBetweenEpochs Rule = "missing-barrier-between-epochs"
	// Epoch: an inner (nested) transaction that does not end with a
	// persist barrier.
	RuleMissingBarrierNestedTx Rule = "missing-barrier-nested-tx"
	// Consecutive epochs/transactions writing to fields of the same
	// persistent object (the program meant them to be atomic).
	RuleSemanticMismatch Rule = "semantic-mismatch"
	// Strand: concurrent strands with WAW/RAW dependences.
	RuleStrandDependence Rule = "strand-data-dependence"

	// Performance rules (Table 5).
	RuleFlushUnmodified  Rule = "flush-unmodified"
	RuleRedundantFlush   Rule = "redundant-flush"
	RuleDurableTxNoWrite Rule = "durable-tx-no-writes"
	RuleMultiplePersist  Rule = "multiple-persist-same-object"

	// CXL-contract rules (pmcontract.CXL with a persistence domain).
	// These only exist under the CXL hardware contract; the x86 scanner
	// never emits them.

	// CXL perf: a flush of data inside a device persistence domain —
	// the store was durable at store time, the clwb buys nothing.
	RuleFlushInPersistDomain Rule = "flush-in-persist-domain"
	// CXL violation: a persistence-domain write never committed by a
	// global persist barrier before path/transaction end.  The domain
	// survives host and power failure, but a device failure discards
	// writes buffered since the last barrier — the CXL re-keying of
	// RuleMissingBarrier's durability obligation.
	RuleMissingGlobalBarrier Rule = "missing-global-barrier"
)

// ClassOf returns the bug family a rule belongs to.
func ClassOf(r Rule) Class {
	switch r {
	case RuleFlushUnmodified, RuleRedundantFlush, RuleDurableTxNoWrite, RuleMultiplePersist,
		RuleFlushInPersistDomain:
		return Performance
	}
	return Violation
}

// Stable machine-readable diagnostic codes.  DMC-Sxx identifies a static
// pass (Table 4/5 rule), DMC-Dxx a dynamic detector.  The numbering is
// append-only: codes are part of the tool's external contract (report
// output, suppression files, cache keys) and must never be reassigned.
const (
	CodeUnflushedWrite       = "DMC-S01"
	CodeMultipleWritesAtOnce = "DMC-S02"
	CodeMissingBarrier       = "DMC-S03"
	CodeMissingBarrierEpochs = "DMC-S04"
	CodeMissingBarrierNested = "DMC-S05"
	CodeSemanticMismatch     = "DMC-S06"
	CodeStrandDependence     = "DMC-S07"
	CodeFlushUnmodified      = "DMC-S08"
	CodeRedundantFlush       = "DMC-S09"
	CodeDurableTxNoWrite     = "DMC-S10"
	CodeMultiplePersist      = "DMC-S11"
	// CXL-contract passes (DMC-Xxx): rules that only exist under the
	// CXL hardware contract.  Same append-only discipline as DMC-Sxx.
	CodeFlushInDomain        = "DMC-X01"
	CodeMissingGlobalBarrier = "DMC-X02"
	// Dynamic detectors (happens-before races between strands).
	CodeDynWAW = "DMC-D01"
	CodeDynRAW = "DMC-D02"
	// CodeDynUnflushedRAW refines CodeDynRAW: the racing read consumed a
	// value another strand wrote but never flushed — a durable side
	// effect built on it is inconsistent after a crash (PMRace's
	// inter-thread inconsistency), strictly worse than an ordinary RAW
	// whose writer at least staged the line.
	CodeDynUnflushedRAW = "DMC-D03"
)

// staticCodes maps each rule to its static pass code.
var staticCodes = map[Rule]string{
	RuleUnflushedWrite:              CodeUnflushedWrite,
	RuleMultipleWritesAtOnce:        CodeMultipleWritesAtOnce,
	RuleMissingBarrier:              CodeMissingBarrier,
	RuleMissingBarrierBetweenEpochs: CodeMissingBarrierEpochs,
	RuleMissingBarrierNestedTx:      CodeMissingBarrierNested,
	RuleSemanticMismatch:            CodeSemanticMismatch,
	RuleStrandDependence:            CodeStrandDependence,
	RuleFlushUnmodified:             CodeFlushUnmodified,
	RuleRedundantFlush:              CodeRedundantFlush,
	RuleDurableTxNoWrite:            CodeDurableTxNoWrite,
	RuleMultiplePersist:             CodeMultiplePersist,
	RuleFlushInPersistDomain:        CodeFlushInDomain,
	RuleMissingGlobalBarrier:        CodeMissingGlobalBarrier,
}

// CodeFor returns the stable diagnostic code for a rule.  The dynamic
// strand detector distinguishes WAW (DMC-D01) from RAW (DMC-D02) at the
// emission site; CodeFor returns the WAW code as the dynamic default for
// warnings that did not set one explicitly.
func CodeFor(r Rule, dynamic bool) string {
	if dynamic && r == RuleStrandDependence {
		return CodeDynWAW
	}
	if c, ok := staticCodes[r]; ok {
		return c
	}
	return ""
}

// Warning is one checker finding.
type Warning struct {
	Rule    Rule
	Class   Class
	Message string
	Func    string
	File    string
	Line    int
	// Dynamic marks findings from the runtime checker.
	Dynamic bool
	// Code is the stable machine-readable diagnostic code (DMC-Sxx /
	// DMC-Dxx).  Add derives it from the rule when left empty; emitters
	// with finer granularity than one rule (the dynamic WAW/RAW
	// detectors) set it explicitly.
	Code string
}

// Key identifies a warning for deduplication: the same defect found along
// several traces (or from several roots) reports once.
func (w Warning) Key() string {
	return fmt.Sprintf("%s|%s|%d", w.Rule, w.File, w.Line)
}

// EffectiveCode returns the warning's code, deriving it from the rule
// when the emitter left it empty.
func (w Warning) EffectiveCode() string {
	if w.Code != "" {
		return w.Code
	}
	return CodeFor(w.Rule, w.Dynamic)
}

// String renders the warning in the CLI's one-line format.
func (w Warning) String() string {
	kind := "static"
	if w.Dynamic {
		kind = "dynamic"
	}
	return fmt.Sprintf("WARNING [%s/%s] %s:%d (%s %s): %s",
		w.Class, kind, w.File, w.Line, w.EffectiveCode(), w.Rule, w.Message)
}

// Stage names for skip annotations: the pipeline stage (or pass) whose
// results are missing from a partial report.
const (
	StageTraces  = "trace-collect"
	StageScan    = "rule-scan"
	StageDynamic = "dynamic-run"
	// StageBudget marks resource-budget exhaustion (trace-entry caps):
	// the findings cover the bounded prefix of the unit's behavior.
	StageBudget = "budget"
)

// Skip records an analysis unit (module, function, run) that was not —
// or not fully — checked: the report is still useful, but partial.
type Skip struct {
	Subject string // what was skipped (module or function name)
	// Stage attributes the gap: the pipeline stage (Stage* constants) or
	// the pass ID that did not run to completion.  Empty on annotations
	// recorded before stage attribution existed.
	Stage  string
	Reason string // why (deadline, cancellation, recovered panic)
}

// String renders the skip in the CLI's one-line format.
func (s Skip) String() string {
	if s.Stage != "" {
		return fmt.Sprintf("SKIPPED %s [%s]: %s", s.Subject, s.Stage, s.Reason)
	}
	return fmt.Sprintf("SKIPPED %s: %s", s.Subject, s.Reason)
}

// Report aggregates deduplicated warnings.
type Report struct {
	Warnings []Warning
	// Skipped annotates graceful degradation: units whose findings are
	// missing or incomplete.  Empty for a complete run.
	Skipped []Skip
	// Contract names the hardware persistency contract the findings were
	// derived under ("x86", "cxl").  Empty means x86 (pre-contract
	// reports and callers that never set it).
	Contract string
	seen     map[string]bool
	seenSkip map[string]bool
}

// New creates an empty report.
func New() *Report {
	return &Report{seen: make(map[string]bool), seenSkip: make(map[string]bool)}
}

// AddSkipStage records a skipped unit, with the pipeline stage (or pass
// ID) that was skipped, unless an identical annotation exists — partial
// reports are attributable to the exact missing analysis.
func (r *Report) AddSkipStage(subject, stage, reason string) {
	if r.seenSkip == nil {
		r.seenSkip = make(map[string]bool)
	}
	k := subject + "|" + stage + "|" + reason
	if r.seenSkip[k] {
		return
	}
	r.seenSkip[k] = true
	r.Skipped = append(r.Skipped, Skip{Subject: subject, Stage: stage, Reason: reason})
}

// Partial reports whether any unit was skipped: the warnings present
// are real, but absence of a warning proves nothing for the skipped
// units.
func (r *Report) Partial() bool { return len(r.Skipped) > 0 }

// Add records a warning unless an identical one (same rule, file, line)
// was already reported.
func (r *Report) Add(w Warning) bool {
	w.Class = ClassOf(w.Rule)
	if w.Code == "" {
		w.Code = CodeFor(w.Rule, w.Dynamic)
	}
	k := w.Key()
	if r.seen[k] {
		return false
	}
	r.seen[k] = true
	r.Warnings = append(r.Warnings, w)
	return true
}

// Merge folds another report in, deduplicating warnings and skip
// annotations.  The contract tag propagates from o when r has none
// (partial merges keep the first contract seen; analyses never mix
// contracts within one report).
func (r *Report) Merge(o *Report) {
	for _, w := range o.Warnings {
		r.Add(w)
	}
	for _, s := range o.Skipped {
		r.AddSkipStage(s.Subject, s.Stage, s.Reason)
	}
	if r.Contract == "" {
		r.Contract = o.Contract
	}
}

// Sort orders warnings by file, line, rule — and skip annotations by
// subject, reason — for stable output.
func (r *Report) Sort() {
	sort.Slice(r.Warnings, func(i, j int) bool {
		a, b := r.Warnings[i], r.Warnings[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return a.Rule < b.Rule
	})
	sort.Slice(r.Skipped, func(i, j int) bool {
		a, b := r.Skipped[i], r.Skipped[j]
		if a.Subject != b.Subject {
			return a.Subject < b.Subject
		}
		if a.Stage != b.Stage {
			return a.Stage < b.Stage
		}
		return a.Reason < b.Reason
	})
}

// CountByClass returns (violations, performance) counts.
func (r *Report) CountByClass() (viol, perf int) {
	for _, w := range r.Warnings {
		if w.Class == Violation {
			viol++
		} else {
			perf++
		}
	}
	return
}

// ByRule groups warning counts per rule.
func (r *Report) ByRule() map[Rule]int {
	out := make(map[Rule]int)
	for _, w := range r.Warnings {
		out[w.Rule]++
	}
	return out
}

// String renders the sorted report.
func (r *Report) String() string {
	r.Sort()
	var b strings.Builder
	for _, w := range r.Warnings {
		b.WriteString(w.String())
		b.WriteString("\n")
	}
	viol, perf := r.CountByClass()
	fmt.Fprintf(&b, "%d warnings (%d model violations, %d performance)\n",
		len(r.Warnings), viol, perf)
	// Skip annotations print only on partial reports, so complete-run
	// output (and the golden files comparing it) is unchanged.
	for _, s := range r.Skipped {
		b.WriteString(s.String())
		b.WriteString("\n")
	}
	if r.Partial() {
		fmt.Fprintf(&b, "partial report: %d units skipped\n", len(r.Skipped))
	}
	return b.String()
}

// jsonWarning is the machine-readable rendering of one warning.
type jsonWarning struct {
	Code    string `json:"code"`
	Rule    string `json:"rule"`
	Class   string `json:"class"`
	Kind    string `json:"kind"` // "static" or "dynamic"
	File    string `json:"file"`
	Line    int    `json:"line"`
	Func    string `json:"func,omitempty"`
	Message string `json:"message"`
}

// jsonSkip is the machine-readable rendering of one skip annotation.
type jsonSkip struct {
	Subject string `json:"subject"`
	Stage   string `json:"stage,omitempty"`
	Reason  string `json:"reason"`
}

// SchemaVersion stamps the JSON report layout.  Bump it whenever a
// field is added, removed or reinterpreted: the serve API and every
// other machine consumer key their compatibility checks on it, and
// ParseJSON rejects documents from a future schema instead of silently
// dropping fields it does not know.
//
// v2 added the optional "contract" tag (the hardware persistency
// contract the findings were derived under).  v1 documents — which
// carry no tag and were always x86 — still parse: ParseJSON rejects
// only versions newer than this binary's.
const SchemaVersion = 2

// jsonReport is the machine-readable rendering of a whole report.
type jsonReport struct {
	SchemaVersion int           `json:"schema_version"`
	Contract      string        `json:"contract,omitempty"`
	Warnings      []jsonWarning `json:"warnings"`
	Violations    int           `json:"violations"`
	Performance   int           `json:"performance"`
	Partial       bool          `json:"partial"`
	Skipped       []jsonSkip    `json:"skipped,omitempty"`
}

// JSON renders the sorted report as indented JSON with stable field
// order; warnings carry their machine-readable codes.
func (r *Report) JSON() ([]byte, error) {
	r.Sort()
	out := jsonReport{SchemaVersion: SchemaVersion, Contract: r.Contract, Warnings: []jsonWarning{}, Partial: r.Partial()}
	for _, w := range r.Warnings {
		kind := "static"
		if w.Dynamic {
			kind = "dynamic"
		}
		out.Warnings = append(out.Warnings, jsonWarning{
			Code: w.EffectiveCode(), Rule: string(w.Rule), Class: w.Class.String(),
			Kind: kind, File: w.File, Line: w.Line, Func: w.Func, Message: w.Message,
		})
	}
	out.Violations, out.Performance = r.CountByClass()
	for _, s := range r.Skipped {
		out.Skipped = append(out.Skipped, jsonSkip{Subject: s.Subject, Stage: s.Stage, Reason: s.Reason})
	}
	return json.MarshalIndent(out, "", "  ")
}

// ParseJSON reconstructs a report from its JSON rendering.  Round trip
// is exact: warnings keep their codes (including dynamic codes finer
// than one rule), skip annotations keep their pass/stage attribution,
// and Partial is re-derived from the skip list — so Parse(JSON(r))
// marshals byte-identically to JSON(r).  Documents stamped with a newer
// schema_version are rejected rather than half-read.
func ParseJSON(b []byte) (*Report, error) {
	var in jsonReport
	if err := json.Unmarshal(b, &in); err != nil {
		return nil, fmt.Errorf("report: parse: %w", err)
	}
	if in.SchemaVersion > SchemaVersion {
		return nil, fmt.Errorf("report: schema_version %d is newer than this binary's %d",
			in.SchemaVersion, SchemaVersion)
	}
	r := New()
	r.Contract = in.Contract
	for _, w := range in.Warnings {
		r.Add(Warning{
			Rule: Rule(w.Rule), Message: w.Message, Func: w.Func,
			File: w.File, Line: w.Line, Dynamic: w.Kind == "dynamic", Code: w.Code,
		})
	}
	for _, s := range in.Skipped {
		r.AddSkipStage(s.Subject, s.Stage, s.Reason)
	}
	if in.Partial != r.Partial() {
		return nil, fmt.Errorf("report: partial flag %v disagrees with %d skip annotations",
			in.Partial, len(r.Skipped))
	}
	return r, nil
}
