package anacache

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"deepmc/internal/dsa"
	"deepmc/internal/ir"
	"deepmc/internal/report"
)

// fpSrc has three weakly-connected components: {a, b} (a calls b),
// {loner}, and {ping, pong} (mutual recursion).
const fpSrc = `
module fp

type rec struct {
	x: int
}

func a(p: *rec) {
	store %p.x, 1 @10
	call b(%p)
	ret
}

func b(p: *rec) {
	flush %p.x @20
	fence
	ret
}

func loner(p: *rec) {
	store %p.x, 2 @30
	ret
}

func ping(p: *rec, n) {
	call pong(%p, %n)
	ret
}

func pong(p: *rec, n) {
	call ping(%p, %n)
	ret
}
`

func fingerprintOf(t *testing.T, src string) *Fingerprints {
	t.Helper()
	return Fingerprint(ir.MustParse(src), []string{"allfuncs=false"}, []string{"model=strict"})
}

func TestFingerprintDeterministic(t *testing.T) {
	a := fingerprintOf(t, fpSrc)
	b := fingerprintOf(t, fpSrc)
	for fn, k := range a.Trace {
		if b.Trace[fn] != k {
			t.Errorf("trace key for %s not deterministic", fn)
		}
	}
	for fn, k := range a.Verdict {
		if b.Verdict[fn] != k {
			t.Errorf("verdict key for %s not deterministic", fn)
		}
	}
	if len(a.Trace) != 5 || len(a.Verdict) != 5 {
		t.Fatalf("expected keys for all 5 functions, got %d/%d", len(a.Trace), len(a.Verdict))
	}
}

// TestFingerprintComponentInvalidation pins the invalidation unit: editing
// one function re-keys exactly its weakly-connected component.
func TestFingerprintComponentInvalidation(t *testing.T) {
	before := fingerprintOf(t, fpSrc)
	after := fingerprintOf(t, strings.Replace(fpSrc, "store %p.x, 2 @30", "store %p.x, 9 @30", 1))

	changed := map[string]bool{"loner": true}
	for fn := range before.Trace {
		if (before.Trace[fn] != after.Trace[fn]) != changed[fn] {
			t.Errorf("trace key for %s: changed=%v, want %v", fn, before.Trace[fn] != after.Trace[fn], changed[fn])
		}
		if (before.Verdict[fn] != after.Verdict[fn]) != changed[fn] {
			t.Errorf("verdict key for %s: changed=%v, want %v", fn, before.Verdict[fn] != after.Verdict[fn], changed[fn])
		}
	}

	// Editing a callee invalidates its whole component (caller included).
	after = fingerprintOf(t, strings.Replace(fpSrc, "flush %p.x @20", "flush %p.x @21", 1))
	for _, fn := range []string{"a", "b"} {
		if before.Trace[fn] == after.Trace[fn] {
			t.Errorf("trace key for %s unchanged after editing its component", fn)
		}
	}
	for _, fn := range []string{"loner", "ping", "pong"} {
		if before.Trace[fn] != after.Trace[fn] {
			t.Errorf("trace key for %s changed by an edit outside its component", fn)
		}
	}
}

// TestFingerprintConfigSeparation: verdict-affecting config (model, pass
// set) must move verdict keys but leave trace keys alone; trace-affecting
// config moves both.
func TestFingerprintConfigSeparation(t *testing.T) {
	m := ir.MustParse(fpSrc)
	base := Fingerprint(m, []string{"allfuncs=false"}, []string{"model=strict"})
	model := Fingerprint(m, []string{"allfuncs=false"}, []string{"model=epoch"})
	tropt := Fingerprint(m, []string{"allfuncs=true"}, []string{"model=strict"})

	for fn := range base.Trace {
		if base.Trace[fn] != model.Trace[fn] {
			t.Errorf("trace key for %s moved with the model", fn)
		}
		if base.Verdict[fn] == model.Verdict[fn] {
			t.Errorf("verdict key for %s ignored the model", fn)
		}
		if base.Trace[fn] == tropt.Trace[fn] {
			t.Errorf("trace key for %s ignored trace options", fn)
		}
	}
}

// TestFingerprintTypeChange: editing a struct layout re-keys everything
// (DSA cells depend on it module-wide).
func TestFingerprintTypeChange(t *testing.T) {
	before := fingerprintOf(t, fpSrc)
	after := fingerprintOf(t, strings.Replace(fpSrc, "x: int", "x: int\n\ty: int", 1))
	for fn := range before.Trace {
		if before.Trace[fn] == after.Trace[fn] {
			t.Errorf("trace key for %s survived a type-layout change", fn)
		}
	}
}

// TestFingerprintCfgOrderIndependent: config fact ordering must not
// affect keys.
func TestFingerprintCfgOrderIndependent(t *testing.T) {
	m := ir.MustParse(fpSrc)
	a := Fingerprint(m, []string{"x=1", "y=2"}, []string{"m=s", "p=v"})
	b := Fingerprint(m, []string{"y=2", "x=1"}, []string{"p=v", "m=s"})
	for fn := range a.Trace {
		if a.Trace[fn] != b.Trace[fn] || a.Verdict[fn] != b.Verdict[fn] {
			t.Errorf("keys for %s depend on config ordering", fn)
		}
	}
}

func TestCacheMemoryTier(t *testing.T) {
	c, err := New("")
	if err != nil {
		t.Fatal(err)
	}
	var k Key
	k[0] = 7

	if _, ok := c.LookupVerdicts(k); ok {
		t.Fatal("hit on empty cache")
	}
	ws := []report.Warning{{Rule: report.RuleUnflushedWrite, Func: "f", Line: 3, Message: "m"}}
	c.StoreVerdicts(k, ws, dsa.FuncSummary{Nodes: 2, Persistent: 1})
	got, ok := c.LookupVerdicts(k)
	if !ok || len(got) != 1 || got[0].Func != "f" {
		t.Fatalf("lookup after store: ok=%v got=%+v", ok, got)
	}

	// The store copies: mutating the caller's slice must not alter the
	// cached entry.
	ws[0].Func = "mutated"
	got, _ = c.LookupVerdicts(k)
	if got[0].Func != "f" {
		t.Fatal("cached verdicts alias the caller's slice")
	}

	st := c.Stats()
	if st.VerdictHits != 2 || st.VerdictMisses != 1 || st.Stores != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestCacheTraceTier(t *testing.T) {
	c, err := New("")
	if err != nil {
		t.Fatal(err)
	}
	var k Key
	k[1] = 9
	if _, ok := c.LookupTraces(k); ok {
		t.Fatal("hit on empty trace tier")
	}
	art := &TraceArtifact{DSA: dsa.FuncSummary{Nodes: 3}}
	c.StoreTraces(k, art)
	got, ok := c.LookupTraces(k)
	if !ok || got != art {
		t.Fatalf("trace tier lookup: ok=%v got=%p want=%p", ok, got, art)
	}
	st := c.Stats()
	if st.TraceHits != 1 || st.TraceMisses != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestCacheDiskTier(t *testing.T) {
	dir := t.TempDir()
	c1, err := New(dir)
	if err != nil {
		t.Fatal(err)
	}
	var k Key
	k[2] = 3
	ws := []report.Warning{{Rule: report.RuleMissingBarrier, Code: report.CodeMissingBarrier, Func: "g", Line: 8, Message: "x"}}
	c1.StoreVerdicts(k, ws, dsa.FuncSummary{Nodes: 1})

	// A fresh cache over the same directory must serve the entry from
	// disk, with the code preserved.
	c2, err := New(dir)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := c2.LookupVerdicts(k)
	if !ok || len(got) != 1 || got[0].Code != report.CodeMissingBarrier || got[0].Func != "g" {
		t.Fatalf("disk round trip: ok=%v got=%+v", ok, got)
	}
	st := c2.Stats()
	if st.DiskHits != 1 {
		t.Fatalf("expected 1 disk hit, stats = %+v", st)
	}

	// A second lookup is served from memory (disk hit count frozen).
	c2.LookupVerdicts(k)
	if st = c2.Stats(); st.DiskHits != 1 || st.VerdictHits != 2 {
		t.Fatalf("memory promotion failed, stats = %+v", st)
	}
}

// TestCacheDiskCorruption: torn or foreign files degrade to misses.
func TestCacheDiskCorruption(t *testing.T) {
	dir := t.TempDir()
	c, err := New(dir)
	if err != nil {
		t.Fatal(err)
	}
	var k Key
	k[3] = 4
	if err := os.WriteFile(c.path(k), []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.LookupVerdicts(k); ok {
		t.Fatal("corrupt entry served as a hit")
	}
	// Wrong format version is likewise a miss.
	if err := os.WriteFile(c.path(k), []byte(`{"format":99,"warnings":[]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.LookupVerdicts(k); ok {
		t.Fatal("wrong-format entry served as a hit")
	}
}

// keyN builds a distinct key from an index.
func keyN(i int) Key {
	var k Key
	k[0], k[1], k[2] = byte(i), byte(i>>8), 0xEE
	return k
}

// TestCacheDiskCapEviction: with a cap set, the disk tier holds at most
// cap entries, the oldest-by-mtime entries go first, and the eviction
// counter surfaces in Stats.
func TestCacheDiskCapEviction(t *testing.T) {
	dir := t.TempDir()
	c, err := New(dir)
	if err != nil {
		t.Fatal(err)
	}
	c.SetDiskCap(4)
	for i := 0; i < 10; i++ {
		ws := []report.Warning{{Rule: report.RuleUnflushedWrite, Func: fmt.Sprintf("f%d", i), Line: i, Message: "m"}}
		c.StoreVerdicts(keyN(i), ws, dsa.FuncSummary{})
		// Distinct mtimes even on filesystems with coarse granularity
		// would need sleeps; the name tiebreaker keeps order stable, so
		// a short settle is enough for most platforms.
		time.Sleep(2 * time.Millisecond)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) > 4 {
		t.Fatalf("disk tier holds %d entries, cap is 4", len(ents))
	}
	if st := c.Stats(); st.Evictions < 6 {
		t.Fatalf("expected >= 6 evictions, stats = %+v", st)
	}
	// The newest entry survived; a fresh cache over the dir serves it.
	c2, _ := New(dir)
	if _, ok := c2.LookupVerdicts(keyN(9)); !ok {
		t.Fatal("most recent entry was evicted")
	}
	// The oldest did not.
	if _, ok := c2.LookupVerdicts(keyN(0)); ok {
		t.Fatal("oldest entry survived past the cap")
	}
}

// TestCacheDiskCapTrimsExisting: pointing a capped cache at an
// oversized directory trims it immediately.
func TestCacheDiskCapTrimsExisting(t *testing.T) {
	dir := t.TempDir()
	c1, _ := New(dir)
	for i := 0; i < 8; i++ {
		c1.StoreVerdicts(keyN(i), nil, dsa.FuncSummary{})
	}
	c2, _ := New(dir)
	c2.SetDiskCap(3)
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 3 {
		t.Fatalf("existing dir not trimmed to cap: %d entries", len(ents))
	}
	if st := c2.Stats(); st.Evictions != 5 {
		t.Fatalf("expected 5 evictions, stats = %+v", st)
	}
}

// TestCacheDiskReadTouches: a disk hit refreshes the entry's mtime, so
// LRU eviction spares recently served verdicts.
func TestCacheDiskReadTouches(t *testing.T) {
	dir := t.TempDir()
	c, _ := New(dir)
	c.StoreVerdicts(keyN(1), nil, dsa.FuncSummary{})
	old := time.Now().Add(-time.Hour)
	if err := os.Chtimes(c.path(keyN(1)), old, old); err != nil {
		t.Fatal(err)
	}
	// A fresh cache reads it from disk, which must touch the file.
	c2, _ := New(dir)
	if _, ok := c2.LookupVerdicts(keyN(1)); !ok {
		t.Fatal("expected disk hit")
	}
	info, err := os.Stat(c.path(keyN(1)))
	if err != nil {
		t.Fatal(err)
	}
	if !info.ModTime().After(old.Add(30 * time.Minute)) {
		t.Fatalf("disk hit did not refresh mtime: %v", info.ModTime())
	}
}

// memBacking is a Backing for tests: a map plus traffic counters.
type memBacking struct {
	mu     sync.Mutex
	m      map[Key][]report.Warning
	loads  int
	stores int
}

func newMemBacking() *memBacking { return &memBacking{m: make(map[Key][]report.Warning)} }

func (b *memBacking) LookupVerdicts(k Key) ([]report.Warning, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.loads++
	ws, ok := b.m[k]
	return ws, ok
}

func (b *memBacking) StoreVerdicts(k Key, ws []report.Warning, _ dsa.FuncSummary) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.stores++
	b.m[k] = ws
}

// TestCacheBackingReadThroughWriteBehind: misses consult the backing
// tier, hits promote into memory, and stores are forwarded.
func TestCacheBackingReadThroughWriteBehind(t *testing.T) {
	b := newMemBacking()
	b.m[keyN(1)] = []report.Warning{{Rule: report.RuleRedundantFlush, Func: "shared", Message: "m"}}

	c, _ := New("")
	c.SetBacking(b)

	// Read-through on miss.
	got, ok := c.LookupVerdicts(keyN(1))
	if !ok || len(got) != 1 || got[0].Func != "shared" {
		t.Fatalf("backing read-through: ok=%v got=%+v", ok, got)
	}
	// Promoted: the second lookup must not touch the backing again.
	c.LookupVerdicts(keyN(1))
	if b.loads != 1 {
		t.Fatalf("expected 1 backing load, got %d", b.loads)
	}
	if st := c.Stats(); st.BackingHits != 1 || st.VerdictHits != 2 {
		t.Fatalf("stats = %+v", st)
	}

	// Write-behind: a local store is forwarded to the backing.
	c.StoreVerdicts(keyN(2), []report.Warning{{Rule: report.RuleUnflushedWrite, Func: "w"}}, dsa.FuncSummary{})
	if b.stores != 1 {
		t.Fatalf("expected 1 backing store, got %d", b.stores)
	}
	if ws, ok := b.m[keyN(2)]; !ok || len(ws) != 1 || ws[0].Func != "w" {
		t.Fatalf("forwarded store missing: %+v", ws)
	}

	// A genuine miss everywhere stays a miss.
	if _, ok := c.LookupVerdicts(keyN(3)); ok {
		t.Fatal("phantom hit")
	}
}

// blockingBacking is a Backing whose lookups park until released — a
// stalled remote tier.
type blockingBacking struct {
	entered chan struct{}
	release chan struct{}
}

func (b *blockingBacking) LookupVerdicts(Key) ([]report.Warning, bool) {
	b.entered <- struct{}{}
	<-b.release
	return nil, false
}

func (b *blockingBacking) StoreVerdicts(Key, []report.Warning, dsa.FuncSummary) {}

// TestSlowBackingDoesNotStallCache: while one lookup waits on a stalled
// backing tier, memory hits on other keys, stores and Stats on the same
// cache must still answer promptly.
func TestSlowBackingDoesNotStallCache(t *testing.T) {
	b := &blockingBacking{entered: make(chan struct{}), release: make(chan struct{})}
	c, _ := New("")
	c.SetBacking(b)
	c.StoreVerdicts(keyN(2), []report.Warning{{Rule: report.RuleUnflushedWrite, Func: "hot"}}, dsa.FuncSummary{})

	missed := make(chan bool)
	go func() {
		_, ok := c.LookupVerdicts(keyN(1))
		missed <- !ok
	}()
	<-b.entered

	done := make(chan struct{})
	go func() {
		defer close(done)
		if ws, ok := c.LookupVerdicts(keyN(2)); !ok || ws[0].Func != "hot" {
			t.Errorf("memory hit lost behind the stalled backing: ok=%v ws=%+v", ok, ws)
		}
		c.StoreVerdicts(keyN(3), nil, dsa.FuncSummary{})
		c.Stats()
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Error("memory hit, store and Stats blocked behind a stalled backing lookup")
	}
	close(b.release)
	<-done
	if !<-missed {
		t.Error("a backing miss came back as a hit")
	}
	if st := c.Stats(); st.VerdictMisses != 1 || st.VerdictHits != 1 {
		t.Errorf("stats = %+v, want 1 miss and 1 hit", st)
	}
}

// TestLazyCacheIsSharedTier: a lazy Cache is itself the shared tier — a
// shard cache backed by it reads through and writes behind, and the
// flush loop persists the write-behind state, finally on stop.
func TestLazyCacheIsSharedTier(t *testing.T) {
	dir := t.TempDir()
	tier, err := NewLazy(dir)
	if err != nil {
		t.Fatal(err)
	}
	stop := tier.FlushLoop(time.Hour) // only stop's final flush can fire
	shard, _ := New("")
	shard.SetBacking(tier)
	shard.StoreVerdicts(keyN(1), []report.Warning{{Rule: report.RuleUnflushedWrite, Func: "w"}}, dsa.FuncSummary{})

	other, _ := New("")
	other.SetBacking(tier)
	if ws, ok := other.LookupVerdicts(keyN(1)); !ok || ws[0].Func != "w" {
		t.Fatalf("verdict did not travel through the tier: ok=%v ws=%+v", ok, ws)
	}
	if ents, _ := os.ReadDir(dir); len(ents) != 0 {
		t.Fatalf("lazy tier wrote %d entries before a flush", len(ents))
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	if err := stop(); err != nil { // idempotent
		t.Fatal(err)
	}
	fresh, _ := New(dir)
	if _, ok := fresh.LookupVerdicts(keyN(1)); !ok {
		t.Fatal("stop did not flush the tier to disk")
	}

	// A running loop flushes without waiting for stop.
	tier2, _ := NewLazy(t.TempDir())
	stop2 := tier2.FlushLoop(5 * time.Millisecond)
	defer stop2()
	tier2.StoreVerdicts(keyN(2), nil, dsa.FuncSummary{})
	deadline := time.Now().Add(5 * time.Second)
	for {
		if ents, _ := os.ReadDir(tier2.Dir()); len(ents) == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("flush loop never persisted the pending entry")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestCacheEmptyVerdictsRoundTrip: a function with zero warnings is a
// cacheable fact; the disk round trip must report a hit, not a miss.
func TestCacheEmptyVerdictsRoundTrip(t *testing.T) {
	dir := t.TempDir()
	c1, _ := New(dir)
	var k Key
	k[4] = 5
	c1.StoreVerdicts(k, nil, dsa.FuncSummary{})
	c2, _ := New(dir)
	got, ok := c2.LookupVerdicts(k)
	if !ok {
		t.Fatal("empty verdict list did not round-trip as a hit")
	}
	if len(got) != 0 {
		t.Fatalf("expected empty list, got %+v", got)
	}
	// No stray temp files left behind.
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if filepath.Ext(e.Name()) != ".json" {
			t.Fatalf("stray file in cache dir: %s", e.Name())
		}
	}
}
