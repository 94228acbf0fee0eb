package corpus

import (
	"context"
	"fmt"
	"strings"

	"deepmc/internal/crashsim"
	"deepmc/internal/fixer"
	"deepmc/internal/ir"
	"deepmc/internal/report"
)

// This file builds the differential-validation harnesses for every
// model-violation bug in the corpus: small PIR programs that splice in
// the corpus program's own declarations of the buggy function, its
// callees and their types (printed from the parsed corpus module, so the
// crash enumerator runs exactly the code the static checker flags, and
// the checker's warning and the fixer's repair key on the same
// file/line annotations), drive them from a harness main that
// pre-initializes distinguishable durable state, and pair them with a
// consistency invariant over the durable image.
//
// Harness design rules, learned from the clwb/sfence crash model:
//
//   - Invariants are one-directional and anchored on a durable commit
//     marker ("marker durable => effect durable"): markers are made
//     durable via transaction commit or a separate fenced write, so the
//     fixed variant never exposes a torn anchor.
//   - Old-generation sentinel values (7, 55, 5, ...) are pre-initialized
//     and fenced durable before the buggy call, so a lost update is
//     distinguishable from never-initialized (zero) state.
//   - Anchors that are zero-valued in the initial image (count==0,
//     meta==0) are guarded by an init marker set after pre-init.
//
// Mechanical bug classes (unflushed-write, missing-persist-barrier,
// missing-barrier-nested-tx) take their fixed variant from fixer.Fix —
// validating the repair engine end-to-end; semantic classes
// (semantic-mismatch, multiple-writes-at-once) carry handwritten
// repairs of the corpus functions expressing the programmer's intent
// (merged transaction, barrier between epochs), swapped in by name.

// crashCaseSpec is the source-level description of one cross-validation
// case.
type crashCaseSpec struct {
	program string
	file    string
	line    int
	rule    report.Rule
	// uses names the corpus program's types and functions the harness
	// runs; they are printed from the program's module, in this order,
	// ahead of the harness.
	uses    []string
	harness string // harness-only types and main
	// fix holds handwritten repaired functions, each replacing its
	// namesake in the fixed variant; empty => repair via fixer.Fix.
	fix string
	inv crashsim.Invariant
}

// fld reads a named field of an object from the durable image, treating
// unknown objects/fields as zero (the object simply has not been
// touched yet at early crash points).
func fld(im *crashsim.Image, obj int, name string) int64 {
	v, _ := im.LoadField(obj, name)
	return v
}

// CrashCases builds the harness pair (buggy, fixed) for every
// model-violation bug in the corpus.  Flagged is left false; the
// CrossValidateCtx glue fills it from a static-checker run.
func CrashCases() ([]crashsim.CrossCase, error) {
	mods, err := corpusModules()
	if err != nil {
		return nil, err
	}
	return buildCases(crashCaseSpecs(), mods)
}

// corpusModules parses every corpus program, keyed by program name.
func corpusModules() (map[string]*ir.Module, error) {
	mods := make(map[string]*ir.Module)
	for _, p := range All() {
		m, err := p.Module()
		if err != nil {
			return nil, err
		}
		mods[p.Name] = m
	}
	return mods, nil
}

// buildCases assembles each spec's harness pair, taking the declarations
// it uses from the module of its program in mods.
func buildCases(specs []crashCaseSpec, mods map[string]*ir.Module) ([]crashsim.CrossCase, error) {
	out := make([]crashsim.CrossCase, 0, len(specs))
	for _, s := range specs {
		src, err := harnessSource(s, mods[s.program])
		if err != nil {
			return nil, err
		}
		bm, err := parseHarness(s, "buggy", src)
		if err != nil {
			return nil, err
		}
		fm, err := fixedHarness(s, bm, []report.Warning{{Rule: s.rule, File: s.file, Line: s.line}})
		if err != nil {
			return nil, err
		}
		out = append(out, crashsim.CrossCase{
			Program:   s.program,
			File:      s.file,
			Line:      s.line,
			Rule:      string(s.rule),
			Entry:     "main",
			Buggy:     bm,
			Fixed:     fm,
			Invariant: s.inv,
		})
	}
	return out, nil
}

// harnessSource prints the declarations s uses from the corpus module
// ahead of s's harness.
func harnessSource(s crashCaseSpec, corpus *ir.Module) (string, error) {
	var b strings.Builder
	b.WriteString("module harness\n")
	for _, name := range s.uses {
		if t := corpus.Types[name]; t != nil {
			b.WriteString(ir.PrintType(t))
		} else if f := corpus.Func(name); f != nil {
			b.WriteString(ir.PrintFunc(f))
		} else {
			return "", fmt.Errorf("crashcases %s %s:%d: %s declares no %s", s.program, s.file, s.line, s.program, name)
		}
	}
	b.WriteString(s.harness)
	return b.String(), nil
}

// fixedHarness builds s's fixed variant: the buggy module bm with each
// of s's fix functions in place of its namesake, or, without fixes, the
// fixer's repair of every warning in ws.
func fixedHarness(s crashCaseSpec, bm *ir.Module, ws []report.Warning) (*ir.Module, error) {
	if s.fix == "" {
		fm, res := fixer.Fix(bm, ws)
		if res.FixedCount() != len(ws) {
			return nil, fmt.Errorf("crashcases %s %s:%d: fixer did not repair the bug:\n%s",
				s.program, s.file, s.line, res)
		}
		if err := ir.Verify(fm); err != nil {
			return nil, fmt.Errorf("crashcases %s %s:%d: fixed module invalid: %w",
				s.program, s.file, s.line, err)
		}
		return fm, nil
	}
	fixes, err := ir.Parse("module fix\n" + s.fix)
	if err != nil {
		return nil, fmt.Errorf("crashcases %s %s:%d (fix): %w", s.program, s.file, s.line, err)
	}
	fm := bm.Clone()
	for _, name := range fixes.FuncNames() {
		if fm.Func(name) == nil {
			return nil, fmt.Errorf("crashcases %s %s:%d (fix): the harness has no function %s to replace",
				s.program, s.file, s.line, name)
		}
		fm.AddFunc(fixes.Funcs[name])
	}
	// Reparse the printed module so the repairs resolve the harness's
	// types like every other function does.
	return parseHarness(s, "fixed", ir.Print(fm))
}

func parseHarness(s crashCaseSpec, variant, src string) (*ir.Module, error) {
	m, err := ir.Parse(src)
	if err != nil {
		return nil, fmt.Errorf("crashcases %s %s:%d (%s): %w", s.program, s.file, s.line, variant, err)
	}
	if err := ir.Verify(m); err != nil {
		return nil, fmt.Errorf("crashcases %s %s:%d (%s): %w", s.program, s.file, s.line, variant, err)
	}
	return m, nil
}

// CrossValidateCtx runs the full differential harness: the static
// checker over each corpus program supplies the Flagged verdicts, and
// the crash enumerator (with the given options) supplies reproduction
// and fixed-clean verdicts over harnesses built from the same parsed
// corpus modules.  Both run under o.Contract.  ctx bounds the
// enumeration only; see crashsim.CrossValidateCtx for the
// partial-result caveat.
func CrossValidateCtx(ctx context.Context, o crashsim.Options) (*crashsim.CrossReport, error) {
	mods, err := corpusModules()
	if err != nil {
		return nil, err
	}
	cases, err := buildCases(crashCaseSpecs(), mods)
	if err != nil {
		return nil, err
	}
	flagged := make(map[string]bool)
	for _, p := range All() {
		// The static verdicts run to completion whatever the deadline:
		// only the enumeration is bounded by ctx.
		rep, err := analyzeContract(context.Background(), mods[p.Name], p.Model, o.Contract, 1)
		if err != nil {
			return nil, err
		}
		for _, w := range rep.Warnings {
			flagged[w.Key()] = true
		}
	}
	for i := range cases {
		c := &cases[i]
		c.Flagged = flagged[report.Warning{Rule: report.Rule(c.Rule), File: c.File, Line: c.Line}.Key()]
	}
	return crashsim.CrossValidateCtx(ctx, cases, o)
}

func crashCaseSpecs() []crashCaseSpec {
	return []crashCaseSpec{
		// --- PMDK ----------------------------------------------------------

		// btree_map.c:201 — the split node's item is stored inside the
		// transaction without TX_ADD logging or a flush: the commit makes
		// parent.n=2 durable while items[1] may persist old or new.
		{
			program: "PMDK", file: "btree_map.c", line: 201, rule: report.RuleUnflushedWrite,
			uses: []string{"tree_map_node", "btree_map_create_split_node", "btree_map_insert"},
			harness: `
func main() {
	file "harness.c"
	%n = palloc tree_map_node
	%p = palloc tree_map_node
	%i1 = index %n.items, 1
	store %i1, 7
	flush %i1
	fence
	store %n.n, 2
	flush %n.n
	fence
	store %p.n, 1
	flush %p.n
	fence
	call btree_map_insert(%n, %p)
	ret
}
`,
			// node=obj1 (items[1] at offset 16), parent=obj2.
			inv: func(im *crashsim.Image) error {
				if fld(im, 2, "n") == 2 && im.Load(1, 16) != 0 {
					return fmt.Errorf("insert committed (parent.n=2) but items[1]=%d kept its old value", im.Load(1, 16))
				}
				return nil
			},
		},

		// rbtree_map.c:379 — the removed node's value is flushed without a
		// persist barrier; the next durable commit can land first.
		{
			program: "PMDK", file: "rbtree_map.c", line: 379, rule: report.RuleMissingBarrier,
			uses: []string{"rbnode", "rbtree_map_remove"},
			harness: `
type hmarker struct {
	done: int
}
func main() {
	file "harness.c"
	%n = palloc rbnode
	%m = palloc hmarker
	store %n.value, 5
	flush %n.value
	fence
	call rbtree_map_remove(%n)
	txbegin
	txadd %m.done
	store %m.done, 1
	txend
	ret
}
`,
			inv: func(im *crashsim.Image) error {
				if fld(im, 2, "done") == 1 && fld(im, 1, "value") != 0 {
					return fmt.Errorf("remove committed but value=%d still durable", fld(im, 1, "value"))
				}
				return nil
			},
		},

		// obj_pmemlog.c:130 — length is flushed but not fenced before the
		// next transaction commits hdr=7.
		{
			program: "PMDK", file: "obj_pmemlog.c", line: 130, rule: report.RuleMissingBarrier,
			uses: []string{"pmemlog", "pmemlog_init"},
			harness: `
func main() {
	file "harness.c"
	%l = palloc pmemlog
	store %l.length, 9
	flush %l.length
	fence
	call pmemlog_init(%l)
	ret
}
`,
			inv: func(im *crashsim.Image) error {
				if fld(im, 1, "hdr") == 7 && fld(im, 1, "length") != 0 {
					return fmt.Errorf("init committed (hdr=7) but length=%d is stale", fld(im, 1, "length"))
				}
				return nil
			},
		},

		// obj_pmemlog.c:91 — header and tail belong together but commit in
		// two separate transactions.
		{
			program: "PMDK", file: "obj_pmemlog.c", line: 91, rule: report.RuleSemanticMismatch,
			uses: []string{"pmemlog", "pmemlog_append"},
			harness: `
func main() {
	file "harness.c"
	%l = palloc pmemlog
	call pmemlog_append(%l)
	ret
}
`,
			fix: `
func pmemlog_append(log: *pmemlog) {
	file "obj_pmemlog.c"
	txbegin                      @85
	txadd %log.hdr               @86
	txadd %log.tail              @91
	store %log.hdr, 1            @87
	store %log.tail, 2           @91
	txend                        @92
	fence                        @92
	ret
}
`,
			inv: logAppendInvariant,
		},

		// hash_map.c:120 — bucket array and bucket count commit in separate
		// transactions (Figure 1).
		{
			program: "PMDK", file: "hash_map.c", line: 120, rule: report.RuleSemanticMismatch,
			uses: []string{"hashmap", "hm_create"},
			harness: `
type hmarker struct {
	init: int
}
func main() {
	file "harness.c"
	%h = palloc hashmap
	%m = palloc hmarker
	store %h.nbuckets, 8
	flush %h.nbuckets
	fence
	%b0 = index %h.buckets, 0
	store %b0, 55
	flush %b0
	fence
	store %m.init, 1
	flush %m.init
	fence
	call hm_create(%h)
	ret
}
`,
			fix: `
func hm_create(h: *hashmap) {
	file "hash_map.c"
	txbegin                      @115
	txadd %h.buckets             @116
	txadd %h.nbuckets            @120
	memset %h.buckets, 0, 128    @117
	store %h.nbuckets, 16        @120
	txend                        @121
	fence                        @121
	ret
}
`,
			inv: hmBucketsInvariant(16),
		},

		// hash_map.c:264 — count and mask commit in separate transactions.
		{
			program: "PMDK", file: "hash_map.c", line: 264, rule: report.RuleSemanticMismatch,
			uses: []string{"hashmap", "hm_rebuild"},
			harness: `
type hmarker struct {
	init: int
}
func main() {
	file "harness.c"
	%h = palloc hashmap
	%m = palloc hmarker
	store %h.count, 5
	flush %h.count
	fence
	store %h.mask, 7
	flush %h.mask
	fence
	store %m.init, 1
	flush %m.init
	fence
	call hm_rebuild(%h)
	ret
}
`,
			fix: `
func hm_rebuild(h: *hashmap) {
	file "hash_map.c"
	txbegin                      @260
	txadd %h.count               @261
	txadd %h.mask                @264
	store %h.count, 0            @262
	store %h.mask, 15            @264
	txend                        @265
	fence                        @265
	ret
}
`,
			inv: hmCountMaskInvariant(15),
		},

		// hashmap_atomic.c:285 — grow commits the cleared bucket array and
		// the new bucket count in separate transactions.
		{
			program: "PMDK", file: "hashmap_atomic.c", line: 285, rule: report.RuleSemanticMismatch,
			uses: []string{"hashmap", "hma_grow"},
			harness: `
type hmarker struct {
	init: int
}
func main() {
	file "harness.c"
	%h = palloc hashmap
	%m = palloc hmarker
	store %h.nbuckets, 8
	flush %h.nbuckets
	fence
	%b0 = index %h.buckets, 0
	store %b0, 55
	flush %b0
	fence
	store %m.init, 1
	flush %m.init
	fence
	call hma_grow(%h)
	ret
}
`,
			fix: `
func hma_grow(h: *hashmap) {
	file "hashmap_atomic.c"
	txbegin                      @280
	txadd %h.buckets             @281
	txadd %h.nbuckets            @285
	memset %h.buckets, 0, 128    @282
	store %h.nbuckets, 32        @285
	txend                        @286
	fence                        @286
	ret
}
`,
			inv: hmBucketsInvariant(32),
		},

		// hashmap_atomic.c:496 — rebuild commits count and mask separately.
		{
			program: "PMDK", file: "hashmap_atomic.c", line: 496, rule: report.RuleSemanticMismatch,
			uses: []string{"hashmap", "hma_rebuild"},
			harness: `
type hmarker struct {
	init: int
}
func main() {
	file "harness.c"
	%h = palloc hashmap
	%m = palloc hmarker
	store %h.count, 5
	flush %h.count
	fence
	store %h.mask, 7
	flush %h.mask
	fence
	store %m.init, 1
	flush %m.init
	fence
	call hma_rebuild(%h)
	ret
}
`,
			fix: `
func hma_rebuild(h: *hashmap) {
	file "hashmap_atomic.c"
	txbegin                      @492
	txadd %h.count               @493
	txadd %h.mask                @496
	store %h.count, 0            @494
	store %h.mask, 31            @496
	txend                        @497
	fence                        @497
	ret
}
`,
			inv: hmCountMaskInvariant(31),
		},

		// obj_pmemlog_simple.c:207 — header and tail split across
		// consecutive transactions, as in obj_pmemlog.c.
		{
			program: "PMDK", file: "obj_pmemlog_simple.c", line: 207, rule: report.RuleSemanticMismatch,
			uses: []string{"pmemlog", "pls_append"},
			harness: `
func main() {
	file "harness.c"
	%l = palloc pmemlog
	call pls_append(%l)
	ret
}
`,
			fix: `
func pls_append(log: *pmemlog) {
	file "obj_pmemlog_simple.c"
	txbegin                      @200
	txadd %log.hdr               @201
	txadd %log.tail              @207
	store %log.hdr, 1            @202
	store %log.tail, 2           @207
	txend                        @208
	fence                        @208
	ret
}
`,
			inv: logAppendInvariant,
		},

		// --- PMFS ----------------------------------------------------------

		// journal.c:632 — one barrier makes two epochs' writes durable at
		// once: the commit block can persist before the journal head.
		{
			program: "PMFS", file: "journal.c", line: 632, rule: report.RuleMultipleWritesAtOnce,
			uses: []string{"pmfs_journal", "pmfs_commit_blk", "pmfs_commit_transaction"},
			harness: `
func main() {
	file "harness.c"
	%j = palloc pmfs_journal
	%cb = palloc pmfs_commit_blk
	call pmfs_commit_transaction(%j, %cb)
	ret
}
`,
			fix: `
func pmfs_commit_transaction(j: *pmfs_journal, cb: *pmfs_commit_blk) {
	file "journal.c"
	epochbegin                   @620
	store %j.head, 1             @622
	flush %j.head                @623
	epochend                     @624
	fence                        @624
	epochbegin                   @626
	store %cb.data, 2            @627
	flush %cb.data               @628
	epochend                     @629
	fence                        @632
	ret
}
`,
			// j=obj1, cb=obj2: epoch order requires head durable before data.
			inv: func(im *crashsim.Image) error {
				if fld(im, 2, "data") == 2 && fld(im, 1, "head") != 1 {
					return fmt.Errorf("second epoch's write durable (data=2) before first epoch's (head=%d)", fld(im, 1, "head"))
				}
				return nil
			},
		},

		// symlink.c:38 — the inner transaction ends without a persist
		// barrier, so the outer commit can become durable before the
		// symlink block contents.
		{
			program: "PMFS", file: "symlink.c", line: 38, rule: report.RuleMissingBarrierNestedTx,
			uses: []string{"pmfs_buf", "pmfs_block_symlink"},
			harness: `
type hmarker struct {
	done: int
}
func main() {
	file "harness.c"
	%b = palloc pmfs_buf
	%m = palloc hmarker
	txbegin
	call pmfs_block_symlink(%b)
	txadd %m.done
	store %m.done, 1
	txend
	fence
	ret
}
`,
			inv: func(im *crashsim.Image) error {
				if fld(im, 2, "done") == 1 && fld(im, 1, "data") != 7 {
					return fmt.Errorf("outer tx committed but symlink data=%d never persisted", fld(im, 1, "data"))
				}
				return nil
			},
		},

		// --- NVM-Direct ----------------------------------------------------

		// nvm_locks.c:932 — new_level is assigned but never flushed; the
		// final persist covers only state.
		{
			program: "NVM-Direct", file: "nvm_locks.c", line: 932, rule: report.RuleUnflushedWrite,
			uses: []string{"nvm_amutex", "nvm_lkrec", "nvm_add_lock_op", "nvm_lock"},
			harness: `
func main() {
	file "harness.c"
	%m = palloc nvm_amutex
	store %m.owners, 5
	flush %m.owners
	fence
	store %m.level, 3
	flush %m.level
	fence
	call nvm_lock(%m)
	ret
}
`,
			// mutex=obj1, lk=obj2: lock record state 2 promises new_level.
			inv: func(im *crashsim.Image) error {
				if fld(im, 2, "state") == 2 && fld(im, 2, "new_level") != 3 {
					return fmt.Errorf("lock record upgraded (state=2) but new_level=%d never persisted", fld(im, 2, "new_level"))
				}
				return nil
			},
		},

		// nvm_region.c:614 — the region header is flushed without a barrier
		// before the transaction that commits the root pointer.
		{
			program: "NVM-Direct", file: "nvm_region.c", line: 614, rule: report.RuleMissingBarrier,
			uses: []string{"nvm_region", "nvm_create_region"},
			harness: `
func main() {
	file "harness.c"
	%r = palloc nvm_region
	call nvm_create_region(%r)
	ret
}
`,
			inv: func(im *crashsim.Image) error {
				if fld(im, 1, "root") == 5 && fld(im, 1, "header") != 1 {
					return fmt.Errorf("root pointer committed but region header=%d not durable", fld(im, 1, "header"))
				}
				return nil
			},
		},

		// nvm_region.c:933 — same pattern tearing the region down; the
		// zero-valued anchor needs an init marker and sentinel values.
		{
			program: "NVM-Direct", file: "nvm_region.c", line: 933, rule: report.RuleMissingBarrier,
			uses: []string{"nvm_region", "nvm_destroy_region"},
			harness: `
type hmarker struct {
	init: int
}
func main() {
	file "harness.c"
	%r = palloc nvm_region
	%m = palloc hmarker
	store %r.header, 1
	flush %r.header
	fence
	store %r.meta, 4
	flush %r.meta
	fence
	store %m.init, 1
	flush %m.init
	fence
	call nvm_destroy_region(%r)
	ret
}
`,
			inv: func(im *crashsim.Image) error {
				if fld(im, 2, "init") == 1 && fld(im, 1, "meta") == 0 && fld(im, 1, "header") != 0 {
					return fmt.Errorf("teardown committed (meta cleared) but header=%d still set", fld(im, 1, "header"))
				}
				return nil
			},
		},

		// --- Mnemosyne -----------------------------------------------------

		// phlog_base.c:132 — the tail update inside the append epoch is
		// never written back.
		{
			program: "Mnemosyne", file: "phlog_base.c", line: 132, rule: report.RuleUnflushedWrite,
			uses: []string{"phlog", "phlog_append"},
			harness: `
type hmarker struct {
	done: int
}
func main() {
	file "harness.c"
	%l = palloc phlog
	%m = palloc hmarker
	call phlog_append(%l)
	store %m.done, 1
	flush %m.done
	fence
	ret
}
`,
			inv: func(im *crashsim.Image) error {
				if fld(im, 2, "done") != 1 {
					return nil
				}
				if fld(im, 1, "head") != 1 || fld(im, 1, "tail") != 2 {
					return fmt.Errorf("append completed but log is head=%d tail=%d, want 1/2",
						fld(im, 1, "head"), fld(im, 1, "tail"))
				}
				return nil
			},
		},
	}
}

// logAppendInvariant: a committed header (hdr=1) promises the tail
// committed with it (the split-transaction logs in obj_pmemlog.c and
// obj_pmemlog_simple.c share the shape and values).
func logAppendInvariant(im *crashsim.Image) error {
	if fld(im, 1, "hdr") == 1 && fld(im, 1, "tail") != 2 {
		return fmt.Errorf("log header committed but tail=%d, want 2", fld(im, 1, "tail"))
	}
	return nil
}

// hmBucketsInvariant guards the Figure 1 shape: once the map is
// initialized (init marker) a cleared bucket array (buckets[0]==0,
// sentinel 55 gone) must come with the new bucket count.
func hmBucketsInvariant(wantN int64) crashsim.Invariant {
	return func(im *crashsim.Image) error {
		if fld(im, 2, "init") == 1 && im.Load(1, 24) == 0 && fld(im, 1, "nbuckets") != wantN {
			return fmt.Errorf("bucket array cleared but nbuckets=%d, want %d", fld(im, 1, "nbuckets"), wantN)
		}
		return nil
	}
}

// hmCountMaskInvariant: a reset count (sentinel 5 gone) must come with
// the rebuilt mask.
func hmCountMaskInvariant(wantMask int64) crashsim.Invariant {
	return func(im *crashsim.Image) error {
		if fld(im, 2, "init") == 1 && fld(im, 1, "count") == 0 && fld(im, 1, "mask") != wantMask {
			return fmt.Errorf("count reset but mask=%d, want %d", fld(im, 1, "mask"), wantMask)
		}
		return nil
	}
}
