package tables

import (
	"strings"
	"testing"
)

func TestTable1MatchesPaper(t *testing.T) {
	out := Table1()
	for _, cell := range []string{
		"23/26", "7/9", "9/11", "4/4",
		"50 warnings in total, 43 validated",
	} {
		if !strings.Contains(out, cell) {
			t.Errorf("Table 1 missing %q:\n%s", cell, out)
		}
	}
}

func TestTable2MatchesPaper(t *testing.T) {
	out := Table2()
	for _, row := range []string{"PMDK", "PMFS", "NVM-Direct"} {
		if !strings.Contains(out, row) {
			t.Errorf("Table 2 missing row %q", row)
		}
	}
	if !strings.Contains(out, "19") {
		t.Errorf("Table 2 total wrong:\n%s", out)
	}
}

func TestTable3ListsAllStudiedBugs(t *testing.T) {
	out := Table3()
	for _, loc := range []string{
		"btree_map.c", "rbtree_map.c", "pminvaders.c", "obj_pmemlog.c",
		"hash_map.c", "journal.c", "symlink.c", "xips.c", "files.c",
		"nvm_region.c", "nvm_heap.c",
	} {
		if !strings.Contains(out, loc) {
			t.Errorf("Table 3 missing %q", loc)
		}
	}
	if got := strings.Count(out, "\n") - 3; got != 19 {
		t.Errorf("Table 3 has %d rows, want 19:\n%s", got, out)
	}
}

func TestTable8CountsNewBugs(t *testing.T) {
	out := Table8()
	if !strings.Contains(out, "24 new bugs (6 model violations, 18 performance)") {
		t.Errorf("Table 8 totals wrong:\n%s", out)
	}
	for _, loc := range []string{"super.c", "nvm_locks.c", "phlog_base.c", "chhash.c", "CHash.c", "hashmap_atomic.c"} {
		if !strings.Contains(out, loc) {
			t.Errorf("Table 8 missing %q", loc)
		}
	}
}

func TestCompletenessAllDetected(t *testing.T) {
	out := Completeness()
	if strings.Contains(out, "MISS") {
		t.Errorf("studied bug missed:\n%s", out)
	}
	if !strings.Contains(out, "19/19") {
		t.Errorf("completeness total wrong:\n%s", out)
	}
}

func TestFalsePositivesRate(t *testing.T) {
	out := FalsePositives()
	if !strings.Contains(out, "7 of 50 warnings are false positives (14%") {
		t.Errorf("FP analysis wrong:\n%s", out)
	}
}

func TestPerfFixShape(t *testing.T) {
	rows := PerfFixMeasure()
	if len(rows) != 7 {
		t.Fatalf("perf-fix rows = %d, want 7", len(rows))
	}
	// Narrowing a flush inside one cacheline writes back the same line,
	// so these two rows may read equal.  Every other repair deletes a
	// flush, a fence or a transaction and must read strictly lower.
	narrows := map[string]bool{"pminvaders.c:143": true, "nvm_locks.c:1411": true}
	best := 0.0
	for _, r := range rows {
		if r.FixedNs > r.BuggyNs || (r.FixedNs == r.BuggyNs && !narrows[r.Site]) {
			t.Errorf("%s/%s (%s): buggy (%d ns) not slower than fixed (%d ns)",
				r.Framework, r.Bug, r.Site, r.BuggyNs, r.FixedNs)
		}
		if p := r.ImprovementPct(); p > best {
			best = p
		}
	}
	// Paper: up to 43%; shape band 30..60%.
	if best < 30 || best > 60 {
		t.Errorf("best improvement = %.1f%%, outside the paper's shape band", best)
	}
}

func TestFig12RowMath(t *testing.T) {
	r := Fig12Row{BaseTput: 1000, InstTput: 850}
	if got := r.OverheadPct(); got != 15 {
		t.Errorf("OverheadPct = %v", got)
	}
	zero := Fig12Row{}
	if zero.OverheadPct() != 0 {
		t.Error("zero baseline must not divide by zero")
	}
}

func TestFigure12SmallRun(t *testing.T) {
	if testing.Short() {
		t.Skip("workload run in -short mode")
	}
	rows, err := Figure12Measure(Fig12Config{OpsPerClient: 300, Clients: 2, Keyspace: 256})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5+6+6 {
		t.Fatalf("rows = %d, want 17", len(rows))
	}
	for _, r := range rows {
		if r.BaseTput <= 0 || r.InstTput <= 0 {
			t.Errorf("%s/%s: non-positive throughput %+v", r.App, r.Workload, r)
		}
	}
}

func TestTable9MeasureSane(t *testing.T) {
	if testing.Short() {
		t.Skip("compile-time experiment in -short mode")
	}
	rows := Table9Measure()
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.DeepMC <= r.Baseline {
			t.Errorf("%s: DeepMC (%v) not slower than baseline (%v)", r.App, r.DeepMC, r.Baseline)
		}
		if r.Funcs == 0 || r.Instrs == 0 {
			t.Errorf("%s: empty module", r.App)
		}
	}
}

func TestTable7AndTable6Static(t *testing.T) {
	if !strings.Contains(Table7(), "NVM") || !strings.Contains(Table6(), "YCSB") {
		t.Error("static tables malformed")
	}
}

func TestAblationsOutput(t *testing.T) {
	out := Ablations()
	if !strings.Contains(out, "43/43 true corpus bugs found") {
		t.Errorf("field-sensitive recall wrong:\n%s", out)
	}
	if !strings.Contains(out, "Shadow scope") {
		t.Errorf("shadow ablation missing:\n%s", out)
	}
}

// TestFleetRoundInProcess drives the fleet gate's round runner and
// killer on the in-process transport: shards die and restart mid-run
// and the merged output still equals the batch reference.
func TestFleetRoundInProcess(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet round in -short mode")
	}
	jobs, err := fleetJobs()
	if err != nil {
		t.Fatal(err)
	}
	ref, err := batchRender(jobs)
	if err != nil {
		t.Fatal(err)
	}
	row, _, err := runFleetRound(fleetRound{tr: inProcess, shards: 4, kills: 2}, jobs, ref)
	if err != nil {
		t.Fatal(err)
	}
	if !row.Identical || row.Errors != 0 || row.Jobs != len(jobs) {
		t.Errorf("row = %+v", row)
	}
	if row.Kills == 0 || row.Kills > 2 || uint64(row.Kills) != row.Stats.Kills {
		t.Errorf("killer performed %d kills, fleet counted %d, want 1..2 and equal", row.Kills, row.Stats.Kills)
	}
}
