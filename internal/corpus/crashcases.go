package corpus

import (
	"context"
	"fmt"

	"deepmc/internal/crashsim"
	"deepmc/internal/fixer"
	"deepmc/internal/ir"
	"deepmc/internal/report"
)

// This file builds the differential-validation harnesses for every
// model-violation bug in the corpus: small PIR programs that copy the
// buggy corpus function verbatim (same file/line annotations, so the
// static checker's warning and the fixer's repair key match), drive it
// from a harness main that pre-initializes distinguishable durable
// state, and pair it with a consistency invariant over the durable
// image.
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
// (semantic-mismatch, multiple-writes-at-once) carry a handwritten
// fixed harness expressing the programmer's intent (merged transaction,
// barrier between epochs).

// crashCaseSpec is the source-level description of one cross-validation
// case.
type crashCaseSpec struct {
	program  string
	file     string
	line     int
	rule     report.Rule
	buggy    string
	fixedSrc string // handwritten fixed source; empty => repair buggy via fixer
	inv      crashsim.Invariant
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
	var out []crashsim.CrossCase
	for _, s := range crashCaseSpecs() {
		bm, err := parseHarness(s, "buggy", s.buggy)
		if err != nil {
			return nil, err
		}
		var fm *ir.Module
		if s.fixedSrc != "" {
			fm, err = parseHarness(s, "fixed", s.fixedSrc)
			if err != nil {
				return nil, err
			}
		} else {
			w := report.Warning{Rule: s.rule, File: s.file, Line: s.line}
			var res *fixer.Result
			fm, res = fixer.Fix(bm, []report.Warning{w})
			if res.FixedCount() != 1 {
				return nil, fmt.Errorf("crashcases %s %s:%d: fixer did not repair the bug:\n%s",
					s.program, s.file, s.line, res)
			}
			if err := ir.Verify(fm); err != nil {
				return nil, fmt.Errorf("crashcases %s %s:%d: fixed module invalid: %w",
					s.program, s.file, s.line, err)
			}
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
// and fixed-clean verdicts.  Both run under o.Contract.  ctx bounds the
// enumeration only; see crashsim.CrossValidateCtx for the
// partial-result caveat.
func CrossValidateCtx(ctx context.Context, o crashsim.Options) (*crashsim.CrossReport, error) {
	cases, err := CrashCases()
	if err != nil {
		return nil, err
	}
	flagged := make(map[string]bool)
	for _, p := range All() {
		m, err := p.Module()
		if err != nil {
			return nil, err
		}
		// The static verdicts run to completion whatever the deadline:
		// only the enumeration is bounded by ctx.
		rep, err := analyzeContract(context.Background(), m, p.Model, o.Contract, 1)
		if err != nil {
			return nil, err
		}
		for _, w := range rep.Warnings {
			flagged[w.Key()] = true
		}
	}
	for i := range cases {
		c := &cases[i]
		c.Flagged = flagged[fmt.Sprintf("%s|%s|%d", c.Rule, c.File, c.Line)]
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
			buggy: `
module h_btree
type tree_map_node struct {
	n: int
	items: [8]int
	slots: [9]int
}
func btree_map_create_split_node(node: *tree_map_node, parent: *tree_map_node) {
	file "btree_map.c"
	%c = load %node.n            @199
	%i = sub %c, 1               @200
	%p = index %node.items, %i   @201
	store %p, 0                  @201
	ret                          @203
}
func btree_map_insert(node: *tree_map_node, parent: *tree_map_node) {
	file "btree_map.c"
	txbegin                      @190
	txadd %parent                @193
	store %parent.n, 2           @194
	call btree_map_create_split_node(%node, %parent) @196
	txend                        @205
	fence                        @205
	ret
}
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
			buggy: `
module h_rbtree
type rbnode struct {
	color: int
	key: int
	value: int
	left: int
	right: int
}
type hmarker struct {
	done: int
}
func rbtree_map_remove(n: *rbnode) {
	file "rbtree_map.c"
	store %n.value, 0            @377
	flush %n.value               @379
	ret                          @381
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
			buggy: `
module h_pmemlog_init
type pmemlog struct {
	hdr: int
	tail: int
	length: int
}
func pmemlog_init(log: *pmemlog) {
	file "obj_pmemlog.c"
	store %log.length, 0         @128
	flush %log.length            @130
	txbegin                      @134
	txadd %log.hdr               @135
	store %log.hdr, 7            @136
	txend                        @137
	fence                        @137
	ret
}
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
			buggy: `
module h_pmemlog_append
type pmemlog struct {
	hdr: int
	tail: int
	length: int
}
func pmemlog_append(log: *pmemlog) {
	file "obj_pmemlog.c"
	txbegin                      @85
	txadd %log.hdr               @86
	store %log.hdr, 1            @87
	txend                        @88
	fence                        @88
	txbegin                      @90
	txadd %log.tail              @91
	store %log.tail, 2           @91
	txend                        @92
	fence                        @92
	ret
}
func main() {
	file "harness.c"
	%l = palloc pmemlog
	call pmemlog_append(%l)
	ret
}
`,
			fixedSrc: `
module h_pmemlog_append_fixed
type pmemlog struct {
	hdr: int
	tail: int
	length: int
}
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
func main() {
	file "harness.c"
	%l = palloc pmemlog
	call pmemlog_append(%l)
	ret
}
`,
			inv: logAppendInvariant,
		},

		// hash_map.c:120 — bucket array and bucket count commit in separate
		// transactions (Figure 1).
		{
			program: "PMDK", file: "hash_map.c", line: 120, rule: report.RuleSemanticMismatch,
			buggy:    hmSplitTxSource("h_hm_create", hmCreateBuggy),
			fixedSrc: hmSplitTxSource("h_hm_create_fixed", hmCreateFixed),
			inv:      hmBucketsInvariant(16),
		},

		// hash_map.c:264 — count and mask commit in separate transactions.
		{
			program: "PMDK", file: "hash_map.c", line: 264, rule: report.RuleSemanticMismatch,
			buggy:    hmSplitTxSource("h_hm_rebuild", hmRebuildBuggy),
			fixedSrc: hmSplitTxSource("h_hm_rebuild_fixed", hmRebuildFixed),
			inv:      hmCountMaskInvariant(15),
		},

		// hashmap_atomic.c:285 — grow commits the cleared bucket array and
		// the new bucket count in separate transactions.
		{
			program: "PMDK", file: "hashmap_atomic.c", line: 285, rule: report.RuleSemanticMismatch,
			buggy:    hmSplitTxSource("h_hma_grow", hmaGrowBuggy),
			fixedSrc: hmSplitTxSource("h_hma_grow_fixed", hmaGrowFixed),
			inv:      hmBucketsInvariant(32),
		},

		// hashmap_atomic.c:496 — rebuild commits count and mask separately.
		{
			program: "PMDK", file: "hashmap_atomic.c", line: 496, rule: report.RuleSemanticMismatch,
			buggy:    hmSplitTxSource("h_hma_rebuild", hmaRebuildBuggy),
			fixedSrc: hmSplitTxSource("h_hma_rebuild_fixed", hmaRebuildFixed),
			inv:      hmCountMaskInvariant(31),
		},

		// obj_pmemlog_simple.c:207 — header and tail split across
		// consecutive transactions, as in obj_pmemlog.c.
		{
			program: "PMDK", file: "obj_pmemlog_simple.c", line: 207, rule: report.RuleSemanticMismatch,
			buggy: `
module h_pls_append
type pmemlog struct {
	hdr: int
	tail: int
	length: int
}
func pls_append(log: *pmemlog) {
	file "obj_pmemlog_simple.c"
	txbegin                      @200
	txadd %log.hdr               @201
	store %log.hdr, 1            @202
	txend                        @203
	fence                        @203
	txbegin                      @206
	txadd %log.tail              @207
	store %log.tail, 2           @207
	txend                        @208
	fence                        @208
	ret
}
func main() {
	file "harness.c"
	%l = palloc pmemlog
	call pls_append(%l)
	ret
}
`,
			fixedSrc: `
module h_pls_append_fixed
type pmemlog struct {
	hdr: int
	tail: int
	length: int
}
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
func main() {
	file "harness.c"
	%l = palloc pmemlog
	call pls_append(%l)
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
			buggy: `
module h_journal
type pmfs_journal struct {
	head: int
	tail: int
}
type pmfs_commit_blk struct {
	data: int
}
func pmfs_commit_transaction(j: *pmfs_journal, cb: *pmfs_commit_blk) {
	file "journal.c"
	epochbegin                   @620
	store %j.head, 1             @622
	flush %j.head                @623
	epochend                     @624
	epochbegin                   @626
	store %cb.data, 2            @627
	flush %cb.data               @628
	epochend                     @629
	fence                        @632
	ret
}
func main() {
	file "harness.c"
	%j = palloc pmfs_journal
	%cb = palloc pmfs_commit_blk
	call pmfs_commit_transaction(%j, %cb)
	ret
}
`,
			fixedSrc: `
module h_journal_fixed
type pmfs_journal struct {
	head: int
	tail: int
}
type pmfs_commit_blk struct {
	data: int
}
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
func main() {
	file "harness.c"
	%j = palloc pmfs_journal
	%cb = palloc pmfs_commit_blk
	call pmfs_commit_transaction(%j, %cb)
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
			buggy: `
module h_symlink
type pmfs_buf struct {
	data: int
	len: int
}
type hmarker struct {
	done: int
}
func pmfs_block_symlink(blockp: *pmfs_buf) {
	file "symlink.c"
	txbegin                      @30
	store %blockp.data, 7        @36
	flush %blockp.data           @37
	txend                        @38
	ret                          @39
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
			buggy: `
module h_nvm_lock
type nvm_amutex struct {
	owners: int
	level: int
}
type nvm_lkrec struct {
	state: int
	new_level: int
	owner: int
}
func nvm_add_lock_op(mutex: *nvm_amutex) *nvm_lkrec {
	file "nvm_locks.c"
	%lk = palloc nvm_lkrec       @870
	ret %lk                      @872
}
func nvm_lock(omutex: *nvm_amutex) {
	file "nvm_locks.c"
	%mutex = or %omutex, 0       @920
	%lk = call nvm_add_lock_op(%mutex) @922
	store %lk.state, 1           @924
	flush %lk.state              @925
	fence                        @925
	%o = load %mutex.owners      @927
	%o2 = sub %o, 1              @927
	store %mutex.owners, %o2     @927
	flush %mutex.owners          @928
	fence                        @928
	%lvl = load %mutex.level     @931
	store %lk.new_level, %lvl    @932
	store %lk.state, 2           @933
	flush %lk.state              @934
	fence                        @934
	ret
}
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
			buggy: `
module h_nvm_create
type nvm_region struct {
	header: int
	root: int
	meta: int
}
func nvm_create_region(region: *nvm_region) {
	file "nvm_region.c"
	store %region.header, 1      @612
	flush %region.header         @614
	txbegin                      @617
	txadd %region.root           @617
	store %region.root, 5        @617
	txend                        @618
	fence                        @618
	ret                          @620
}
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
			buggy: `
module h_nvm_destroy
type nvm_region struct {
	header: int
	root: int
	meta: int
}
type hmarker struct {
	init: int
}
func nvm_destroy_region(region: *nvm_region) {
	file "nvm_region.c"
	store %region.header, 0      @931
	flush %region.header         @933
	txbegin                      @936
	txadd %region.meta           @936
	store %region.meta, 0        @937
	txend                        @938
	fence                        @938
	ret
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
			buggy: `
module h_phlog
type phlog struct {
	head: int
	tail: int
}
type hmarker struct {
	done: int
}
func phlog_append(log: *phlog) {
	file "phlog_base.c"
	epochbegin                   @128
	store %log.head, 1           @130
	flush %log.head              @131
	store %log.tail, 2           @132
	epochend                     @134
	fence                        @135
	ret
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

// hmSplitTxSource assembles a hashmap harness module: shared types, the
// framework function under test, and the pre-initializing driver.
func hmSplitTxSource(modname, body string) string {
	return "module " + modname + `
type hashmap struct {
	nbuckets: int
	mask: int
	count: int
	buckets: [16]int
}
type hmarker struct {
	init: int
}
` + body
}

const hmCreateBuggy = `
func hm_create(h: *hashmap) {
	file "hash_map.c"
	txbegin                      @115
	txadd %h.buckets             @116
	memset %h.buckets, 0, 128    @117
	txend                        @118
	fence                        @118
	txbegin                      @119
	txadd %h.nbuckets            @120
	store %h.nbuckets, 16        @120
	txend                        @121
	fence                        @121
	ret
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
`

const hmCreateFixed = `
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
`

const hmRebuildBuggy = `
func hm_rebuild(h: *hashmap) {
	file "hash_map.c"
	txbegin                      @260
	txadd %h.count               @261
	store %h.count, 0            @262
	txend                        @263
	fence                        @263
	txbegin                      @264
	txadd %h.mask                @264
	store %h.mask, 15            @264
	txend                        @265
	fence                        @265
	ret
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
`

const hmRebuildFixed = `
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
`

const hmaGrowBuggy = `
func hma_grow(h: *hashmap) {
	file "hashmap_atomic.c"
	txbegin                      @280
	txadd %h.buckets             @281
	memset %h.buckets, 0, 128    @282
	txend                        @283
	fence                        @283
	txbegin                      @284
	txadd %h.nbuckets            @285
	store %h.nbuckets, 32        @285
	txend                        @286
	fence                        @286
	ret
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
`

const hmaGrowFixed = `
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
`

const hmaRebuildBuggy = `
func hma_rebuild(h: *hashmap) {
	file "hashmap_atomic.c"
	txbegin                      @492
	txadd %h.count               @493
	store %h.count, 0            @494
	txend                        @495
	fence                        @495
	txbegin                      @496
	txadd %h.mask                @496
	store %h.mask, 31            @496
	txend                        @497
	fence                        @497
	ret
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
`

const hmaRebuildFixed = `
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
`
