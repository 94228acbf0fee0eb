package corpus

import (
	"fmt"
	"strconv"
	"strings"

	"deepmc/internal/ir"
	"deepmc/internal/report"
)

// This file builds the §5.1 fix experiments the way crashcases.go
// builds the crash harnesses: each performance bug's own corpus
// functions, printed from the parsed corpus module, run from a harness
// main that repeats the workload loop, paired with the repaired
// program.  The fixer repairs the mechanical rows; the durable
// transaction without writes carries a handwritten repair.  Running a
// pair on the NVM pool prices the fix (tables.PerfFixMeasure).

// PerfCase is one §5.1 fix experiment.
type PerfCase struct {
	Program string
	Bug     string // what the bug does
	File    string
	Lines   []int // the bug's sites, all repaired in Fixed
	Rule    string
	Entry   string
	Buggy   *ir.Module
	Fixed   *ir.Module
}

// Site renders the bug's file and lines: "super.c:542,543,579".
func (c PerfCase) Site() string {
	lines := make([]string, len(c.Lines))
	for i, l := range c.Lines {
		lines[i] = strconv.Itoa(l)
	}
	return c.File + ":" + strings.Join(lines, ",")
}

// perfCaseSpec is a harness spec for one §5.1 row.  more lists further
// lines of the same bug, repaired together with the spec's own.
type perfCaseSpec struct {
	crashCaseSpec
	bug  string
	more []int
}

// PerfCases builds the buggy and fixed program of every §5.1 row, in
// table order.
func PerfCases() ([]PerfCase, error) {
	mods, err := corpusModules()
	if err != nil {
		return nil, err
	}
	specs := perfCaseSpecs()
	out := make([]PerfCase, 0, len(specs))
	for _, s := range specs {
		src, err := harnessSource(s.crashCaseSpec, mods[s.program])
		if err != nil {
			return nil, err
		}
		bm, err := parseHarness(s.crashCaseSpec, "buggy", src)
		if err != nil {
			return nil, err
		}
		lines := append([]int{s.line}, s.more...)
		ws := make([]report.Warning, len(lines))
		for i, l := range lines {
			ws[i] = report.Warning{Rule: s.rule, File: s.file, Line: l}
		}
		fm, err := fixedHarness(s.crashCaseSpec, bm, ws)
		if err != nil {
			return nil, err
		}
		out = append(out, PerfCase{
			Program: s.program,
			Bug:     s.bug,
			File:    s.file,
			Lines:   lines,
			Rule:    string(s.rule),
			Entry:   "main",
			Buggy:   bm,
			Fixed:   fm,
		})
	}
	return out, nil
}

// perfMain is a harness main that runs setup once, then body n times
// with %i counting from 0.
func perfMain(n int, setup, body string) string {
	return fmt.Sprintf(`
func main() {
	file "harness.c"%s
	%%i = const 0
	br loop
loop:%s
	%%i = add %%i, 1
	%%more = lt %%i, %d
	condbr %%more, loop, done
done:
	ret
}
`, setup, body, n)
}

// perfCaseSpecs returns the §5.1 rows in table order.  A row's loop is
// part of what the row measures: changing a loop, like padding a corpus
// type, to move a row changes the experiment, not the result.
func perfCaseSpecs() []perfCaseSpec {
	return []perfCaseSpec{
		// pminvaders.c:143 — the task-construction path reads the
		// prototype, then timer_tick persists the whole game state for a
		// one-field update.  The fixer narrows the flush to the timer.
		{
			bug: "flush unmodified fields",
			crashCaseSpec: crashCaseSpec{
				program: "PMDK", file: "pminvaders.c", line: 143, rule: report.RuleFlushUnmodified,
				uses: []string{"game_state", "timer_tick"},
				harness: perfMain(2000, `
	%g = palloc game_state`, `
	%t = load %g.timer
	%y = load %g.y
	%x = load %g.x
	call timer_tick(%g)`),
			},
		},

		// pminvaders.c:256 — the game loop alternates an update with a
		// read-only pass, and the read-only pass still opens and commits
		// a durable transaction.
		{
			bug: "durable tx without writes",
			crashCaseSpec: crashCaseSpec{
				program: "PMDK", file: "pminvaders.c", line: 256, rule: report.RuleDurableTxNoWrite,
				uses: []string{"game_state", "process_aliens"},
				harness: perfMain(2000, `
	%g = palloc game_state`, `
	%odd = mod %i, 2
	%c = eq %odd, 0
	call process_aliens(%g, %c)`),
				fix: `
func process_aliens(g: *game_state, c) {
	file "pminvaders.c"
	condbr %c, upd, out          @257
upd:
	txbegin                      @256
	txadd %g                     @258
	store %g.timer, 9            @259
	store %g.y, 1                @260
	txend                        @262
	fence                        @262
	br out
out:
	ret
}
`,
			},
		},

		// nvm_heap.c:1965 — every freed block's header is flushed again
		// after nvm_free_blk persisted it.
		{
			bug: "redundant flush on free",
			crashCaseSpec: crashCaseSpec{
				program: "NVM-Direct", file: "nvm_heap.c", line: 1965, rule: report.RuleRedundantFlush,
				uses: []string{"nvm_blk", "nvm_free_blk", "nvm_free_callback"},
				harness: perfMain(500, "", `
	%b = palloc nvm_blk
	call nvm_free_callback(%b)`),
			},
		},

		// nvm_locks.c:1411 — a critical section reads the protected
		// state, then the unlock writes back the whole lock record.  The
		// fixer narrows the flush to the state field.
		{
			bug: "flush whole lock record",
			crashCaseSpec: crashCaseSpec{
				program: "NVM-Direct", file: "nvm_locks.c", line: 1411, rule: report.RuleFlushUnmodified,
				uses: []string{"nvm_lkrec", "nvm_unlock"},
				harness: `
type protected struct {
	data: int
}
` + perfMain(2000, `
	%lk = palloc nvm_lkrec
	%s = palloc protected`, `
	%d1 = load %s.data
	%d2 = load %s.data
	%d3 = load %s.data
	%d4 = load %s.data
	%d5 = load %s.data
	%d6 = load %s.data
	%d7 = load %s.data
	%d8 = load %s.data
	call nvm_unlock(%lk)`),
			},
		},

		// super.c:542, 543, 579 — each remount probe validates the
		// superblock, writing back fields nothing modified, then serves a
		// metadata read.  The fixer deletes the three flushes.
		{
			bug:  "flush superblock on clean recovery",
			more: []int{543, 579},
			crashCaseSpec: crashCaseSpec{
				program: "PMFS", file: "super.c", line: 542, rule: report.RuleFlushUnmodified,
				uses: []string{"pmfs_super", "pmfs_inode", "pmfs_recover_super"},
				harness: perfMain(2000, `
	%sb = palloc pmfs_super
	%rsb = palloc pmfs_super
	%ino = palloc pmfs_inode`, `
	call pmfs_recover_super(%sb, %rsb)
	%size = load %ino.size`),
			},
		},

		// xips.c:262 — every file write flushes its buffer twice.
		{
			bug: "flush same buffer twice",
			crashCaseSpec: crashCaseSpec{
				program: "PMFS", file: "xips.c", line: 262, rule: report.RuleRedundantFlush,
				uses: []string{"pmfs_buf", "pmfs_xip_file_write"},
				harness: perfMain(200, `
	%b = palloc pmfs_buf`, `
	call pmfs_xip_file_write(%b)`),
			},
		},

		// CHash.c:150 — every rehash flushes the bucket pointer twice.
		{
			bug: "multiple flushes of bucket pointer",
			crashCaseSpec: crashCaseSpec{
				program: "Mnemosyne", file: "CHash.c", line: 150, rule: report.RuleRedundantFlush,
				uses: []string{"chhash_table", "chash_rehash"},
				harness: perfMain(2000, `
	%t = palloc chhash_table`, `
	call chash_rehash(%t)`),
			},
		},
	}
}
