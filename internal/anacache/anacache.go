// Package anacache is the content-hashed incremental analysis cache:
// per-function fingerprints (IR bytes + analysis configuration +
// pass-set version) key memoized trace sets, DSA summaries and per-pass
// verdict lists, so re-analysis of an unchanged function is a lookup
// instead of a path exploration.
//
// Two tiers with different lifetimes and different keys:
//
//   - The trace tier is in-memory only.  It holds live *trace.Trace
//     values (which reference DSA nodes and cannot be serialized) keyed
//     by a trace fingerprint that excludes the persistency model and the
//     pass set — re-checking the same module under a different rule
//     selection reuses the collected traces and pays only the linear
//     rule scan.
//   - The verdict tier is in-memory plus an optional on-disk directory
//     (-cache-dir).  It holds the per-function warning lists keyed by a
//     verdict fingerprint that additionally covers the model and the
//     enabled pass set; a full hit skips straight to report assembly and
//     is byte-identical to a cold run, because the cached fragments are
//     exactly what the cold merge would have folded.
//
// Correctness notes: only complete (non-partial, non-canceled) results
// may be stored; fingerprints are conservative at the granularity of
// weakly-connected call-graph components (see fingerprint.go), so a hit
// can never be stale; and the disk tier validates a format version so
// incompatible cache directories degrade to misses, never to corrupt
// reports.
package anacache

import (
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"deepmc/internal/dsa"
	"deepmc/internal/report"
	"deepmc/internal/trace"
)

// Key is a 32-byte content hash.
type Key [32]byte

// Hex renders the key as the disk tier's file-name stem.
func (k Key) Hex() string { return hex.EncodeToString(k[:]) }

// TraceArtifact is one function's memoized exploration result: its
// merged trace set plus the DSA shape summary.  Memory tier only.
type TraceArtifact struct {
	Traces []*trace.Trace
	DSA    dsa.FuncSummary
	// Truncated carries the producing run's trace-entry-budget flag, so
	// seeding a warm collector reproduces the cold run's budget skips —
	// a warm report must stay byte-identical to a cold one even for
	// functions that blow the budget.
	Truncated bool
}

// Stats counts cache traffic, for `deepmc-bench cache` and the
// incremental-recompute tests.
type Stats struct {
	VerdictHits   uint64 `json:"verdict_hits"`
	VerdictMisses uint64 `json:"verdict_misses"`
	TraceHits     uint64 `json:"trace_hits"`
	TraceMisses   uint64 `json:"trace_misses"`
	DiskHits      uint64 `json:"disk_hits"`
	Stores        uint64 `json:"stores"`
	// BackingHits counts verdict lookups served read-through from the
	// shared backing tier (the fleet's network verdict store).
	BackingHits uint64 `json:"backing_hits"`
	// Evictions counts disk-tier entries removed by the size cap's
	// LRU-by-mtime eviction.
	Evictions uint64 `json:"evictions"`
}

// Backing is a shared verdict tier behind a Cache: read-through on
// verdict lookups that miss both local tiers, write-behind on verdict
// stores.  A lazy *Cache is itself a Backing — the fleet's shared tier
// is one NewLazy cache over a common directory, so every shard warms
// from (and feeds) the same tier while keeping its own
// failure-independent local cache — and RemoteBacking reaches such a
// cache over HTTP.  Implementations must be safe for concurrent use.
type Backing interface {
	// LookupVerdicts returns the warning list memoized under k, if any.
	LookupVerdicts(k Key) ([]report.Warning, bool)
	// StoreVerdicts forwards a complete per-function verdict for
	// sharing.  It must not block on durability — writes behind are the
	// implementation's concern.
	StoreVerdicts(k Key, ws []report.Warning, sum dsa.FuncSummary)
}

// Cache is the two-tier artifact cache.  Safe for concurrent use; one
// Cache may be shared across every module of a corpus run (keys are
// content hashes, so modules cannot collide except by being identical —
// in which case sharing is the point).
type Cache struct {
	mu       sync.Mutex
	traces   map[Key]*TraceArtifact
	verdicts map[Key][]report.Warning
	dir      string // "" = memory only
	// diskMu guards the disk tier's size bookkeeping (locked after mu
	// when both are held).
	diskMu sync.Mutex
	// lazy defers disk writes: StoreVerdicts parks entries in pending
	// and Flush writes them out in one batch (the serve daemon's drain
	// path — requests never pay disk latency, a graceful shutdown
	// persists the warm tier for the next process).
	lazy    bool
	pending map[Key]diskEntry
	// backing is the optional shared read-through/write-behind tier.
	backing Backing
	// diskCap bounds the disk tier's entry count (0 = unbounded);
	// diskCount is the tracked entry count, -1 until first scanned;
	// evictions counts cap-driven removals.  All under diskMu.
	diskCap   int
	diskCount int
	evictions uint64
	stats     Stats
}

// diskFormat versions the on-disk entry layout.
const diskFormat = 1

// diskEntry is the serialized form of one verdict-tier entry.
type diskEntry struct {
	Format   int              `json:"format"`
	Warnings []report.Warning `json:"warnings"`
	DSA      dsa.FuncSummary  `json:"dsa"`
}

// New creates a cache.  A non-empty dir enables the on-disk verdict
// tier (created if missing).
func New(dir string) (*Cache, error) {
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("anacache: %w", err)
		}
	}
	return &Cache{
		traces:    make(map[Key]*TraceArtifact),
		verdicts:  make(map[Key][]report.Warning),
		dir:       dir,
		diskCount: -1, // unknown until the cap first needs it
	}, nil
}

// SetBacking attaches a shared read-through/write-behind verdict tier:
// lookups that miss memory and disk consult it, and stores are
// forwarded to it.  Call before sharing the cache across goroutines.
func (c *Cache) SetBacking(b Backing) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.backing = b
}

// SetDiskCap bounds the disk tier to at most max entries (0 removes
// the bound).  When the tier exceeds the cap — immediately, or after a
// later write — the least-recently-used entries by mtime are evicted
// (read hits touch their entry, so recently served verdicts survive).
// A long-lived daemon or fleet tier otherwise grows the cache
// directory without bound.
func (c *Cache) SetDiskCap(max int) {
	if c.dir == "" {
		return
	}
	c.diskMu.Lock()
	c.diskCap = max
	c.diskMu.Unlock()
	c.evictOverCap()
}

// NewLazy creates a cache whose disk tier is read-enabled but
// write-deferred: lookups consult dir as usual, while stores accumulate
// in memory until Flush persists them in one batch.  This is the serve
// daemon's mode — the hot path never blocks on disk I/O, and graceful
// drain flushes the tier so a restarted process warms from it.
func NewLazy(dir string) (*Cache, error) {
	c, err := New(dir)
	if err != nil {
		return nil, err
	}
	if dir != "" {
		c.lazy = true
		c.pending = make(map[Key]diskEntry)
	}
	return c, nil
}

// FlushLoop flushes the deferred disk writes every period from a
// background goroutine — a long-lived shared tier's write-behind
// cadence.  The returned stop ends the loop and performs a final Flush,
// so a restarted process warms from everything this one stored; it
// returns that flush's error and is safe to call more than once.  For a
// non-lazy cache or a non-positive period no goroutine starts and stop
// only flushes.
func (c *Cache) FlushLoop(every time.Duration) (stop func() error) {
	done := make(chan struct{})
	var wg sync.WaitGroup
	if c.lazy && every > 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tick := time.NewTicker(every)
			defer tick.Stop()
			for {
				select {
				case <-tick.C:
					c.Flush()
				case <-done:
					return
				}
			}
		}()
	}
	var once sync.Once
	return func() error {
		once.Do(func() { close(done) })
		wg.Wait()
		_, err := c.Flush()
		return err
	}
}

// Flush writes every deferred verdict entry to the disk tier and clears
// the backlog.  It reports how many entries were written and the first
// write error (later entries are still attempted).  No-op for non-lazy
// or memory-only caches.  Safe for concurrent use with lookups/stores:
// the backlog is swapped out under the lock and written outside it.
func (c *Cache) Flush() (int, error) {
	c.mu.Lock()
	if !c.lazy || len(c.pending) == 0 {
		c.mu.Unlock()
		return 0, nil
	}
	batch := c.pending
	c.pending = make(map[Key]diskEntry)
	c.mu.Unlock()
	var firstErr error
	n := 0
	for k, e := range batch {
		if err := c.writeDisk(k, e); err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		n++
	}
	return n, firstErr
}

// Dir returns the on-disk tier's directory ("" when memory-only).
func (c *Cache) Dir() string { return c.dir }

// LookupVerdicts returns the memoized warning list for a verdict key,
// consulting memory first, then disk, then the backing tier.  The
// returned slice must not be mutated.
//
// Disk reads happen under the lock, so a second concurrent load of the
// same key waits and then hits memory: one disk read per key.  The
// backing is consulted outside the lock — a remote tier's bounded GET
// must not stall this cache's other lookups, stores and Stats — at the
// cost that two concurrent misses on one key may each consult it.
func (c *Cache) LookupVerdicts(k Key) ([]report.Warning, bool) {
	c.mu.Lock()
	if ws, ok := c.lookupLocalLocked(k); ok {
		c.mu.Unlock()
		return ws, true
	}
	b := c.backing
	if b == nil {
		c.stats.VerdictMisses++
		c.mu.Unlock()
		return nil, false
	}
	c.mu.Unlock()

	ws, ok := b.LookupVerdicts(k)

	c.mu.Lock()
	defer c.mu.Unlock()
	if !ok {
		c.stats.VerdictMisses++
		return nil, false
	}
	if cur, ok := c.verdicts[k]; ok {
		ws = cur // a concurrent store or load got here first
	} else {
		if ws == nil {
			ws = []report.Warning{}
		}
		c.verdicts[k] = ws
	}
	c.stats.VerdictHits++
	c.stats.BackingHits++
	return ws, true
}

// lookupLocalLocked serves a verdict from memory or the disk tier
// (c.mu held), counting the hit.
func (c *Cache) lookupLocalLocked(k Key) ([]report.Warning, bool) {
	if ws, ok := c.verdicts[k]; ok {
		c.stats.VerdictHits++
		return ws, true
	}
	if c.dir == "" {
		return nil, false
	}
	e, ok := c.readDisk(k)
	if !ok {
		return nil, false
	}
	ws := e.Warnings
	if ws == nil {
		ws = []report.Warning{}
	}
	c.verdicts[k] = ws
	c.stats.VerdictHits++
	c.stats.DiskHits++
	// Touch the entry so LRU-by-mtime eviction treats a served verdict
	// as recently used (best effort — a failed touch only makes the
	// entry evictable sooner).
	now := time.Now()
	_ = os.Chtimes(c.path(k), now, now)
	return ws, true
}

// StoreVerdicts memoizes a complete per-function warning list under a
// verdict key, in memory, (when enabled) on disk, and — write-behind —
// in the shared backing tier.
func (c *Cache) StoreVerdicts(k Key, ws []report.Warning, sum dsa.FuncSummary) {
	cp := append([]report.Warning(nil), ws...)
	c.mu.Lock()
	if _, ok := c.verdicts[k]; ok {
		c.mu.Unlock()
		return
	}
	c.verdicts[k] = cp
	c.stats.Stores++
	if c.dir != "" {
		e := diskEntry{Format: diskFormat, Warnings: cp, DSA: sum}
		if c.lazy {
			c.pending[k] = e
		} else {
			c.writeDisk(k, e)
		}
	}
	b := c.backing
	c.mu.Unlock()
	// Forwarded outside the lock: the backing tier's durability is its
	// own concern and must not serialize local cache traffic.
	if b != nil {
		b.StoreVerdicts(k, cp, sum)
	}
}

// LookupTraces returns the memoized trace artifact for a trace key
// (memory tier only).
func (c *Cache) LookupTraces(k Key) (*TraceArtifact, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if a, ok := c.traces[k]; ok {
		c.stats.TraceHits++
		return a, true
	}
	c.stats.TraceMisses++
	return nil, false
}

// StoreTraces memoizes a complete trace artifact under a trace key.
func (c *Cache) StoreTraces(k Key, a *TraceArtifact) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.traces[k]; !ok {
		c.traces[k] = a
	}
}

// Stats snapshots the traffic counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	st := c.stats
	c.mu.Unlock()
	c.diskMu.Lock()
	st.Evictions = c.evictions
	c.diskMu.Unlock()
	return st
}

// path maps a key to its disk file.
func (c *Cache) path(k Key) string { return filepath.Join(c.dir, k.Hex()+".json") }

// readDisk loads one entry; any read, parse or format mismatch is a
// miss, never an error — a stale or foreign cache directory degrades to
// cold analysis.
func (c *Cache) readDisk(k Key) (diskEntry, bool) {
	b, err := os.ReadFile(c.path(k))
	if err != nil {
		return diskEntry{}, false
	}
	var e diskEntry
	if err := json.Unmarshal(b, &e); err != nil || e.Format != diskFormat {
		return diskEntry{}, false
	}
	return e, true
}

// writeDisk persists one entry atomically (write-to-temp, rename), so a
// crashed or concurrent writer can never leave a torn entry that a
// later run would half-read.  The write-through store path ignores the
// returned error (a failed store degrades to a later miss); Flush
// surfaces it for drain accounting.
func (c *Cache) writeDisk(k Key, e diskEntry) error {
	b, err := json.Marshal(e)
	if err != nil {
		return fmt.Errorf("anacache: marshal %s: %w", k.Hex(), err)
	}
	tmp, err := os.CreateTemp(c.dir, "."+k.Hex()+".tmp-*")
	if err != nil {
		return fmt.Errorf("anacache: %w", err)
	}
	name := tmp.Name()
	_, werr := tmp.Write(b)
	cerr := tmp.Close()
	if werr != nil || cerr != nil {
		os.Remove(name)
		if werr == nil {
			werr = cerr
		}
		return fmt.Errorf("anacache: write %s: %w", k.Hex(), werr)
	}
	dst := c.path(k)
	_, statErr := os.Stat(dst)
	if err := os.Rename(name, dst); err != nil {
		os.Remove(name)
		return fmt.Errorf("anacache: %w", err)
	}
	if statErr != nil { // a new entry, not an overwrite
		c.diskMu.Lock()
		if c.diskCount >= 0 {
			c.diskCount++
		}
		c.diskMu.Unlock()
	}
	c.evictOverCap()
	return nil
}

// evictOverCap enforces the disk cap: when the tier holds more than
// diskCap entries, the least-recently-used (oldest mtime) entries are
// removed until it fits.  Temp files from in-flight writers are never
// touched.  Called after writes and from SetDiskCap; cheap while under
// the cap (one counter check).
func (c *Cache) evictOverCap() {
	c.diskMu.Lock()
	defer c.diskMu.Unlock()
	if c.diskCap <= 0 || c.dir == "" {
		return
	}
	if c.diskCount < 0 {
		c.diskCount = c.scanDiskLocked()
	}
	if c.diskCount <= c.diskCap {
		return
	}
	type entry struct {
		name  string
		mtime time.Time
	}
	des, err := os.ReadDir(c.dir)
	if err != nil {
		return
	}
	var entries []entry
	for _, de := range des {
		if de.IsDir() || !strings.HasSuffix(de.Name(), ".json") {
			continue
		}
		info, err := de.Info()
		if err != nil {
			continue
		}
		entries = append(entries, entry{de.Name(), info.ModTime()})
	}
	// Oldest first; name as the tiebreaker keeps eviction order
	// deterministic on filesystems with coarse mtime granularity.
	sort.Slice(entries, func(i, j int) bool {
		if !entries[i].mtime.Equal(entries[j].mtime) {
			return entries[i].mtime.Before(entries[j].mtime)
		}
		return entries[i].name < entries[j].name
	})
	c.diskCount = len(entries)
	for _, e := range entries {
		if c.diskCount <= c.diskCap {
			break
		}
		if os.Remove(filepath.Join(c.dir, e.name)) == nil {
			c.diskCount--
			c.evictions++
		}
	}
}

// scanDiskLocked counts the disk tier's entries (diskMu held).
func (c *Cache) scanDiskLocked() int {
	des, err := os.ReadDir(c.dir)
	if err != nil {
		return 0
	}
	n := 0
	for _, de := range des {
		if !de.IsDir() && strings.HasSuffix(de.Name(), ".json") {
			n++
		}
	}
	return n
}
