package mnemosyne

import (
	"testing"

	"deepmc/internal/nvm"
)

func region(cfg Config) *Region {
	if cfg.NVM.Size == 0 {
		cfg.NVM = nvm.Config{Size: 8 << 20}
	}
	r, err := OpenRegion(cfg)
	if err != nil {
		panic(err)
	}
	return r
}

func TestTxCommitDurable(t *testing.T) {
	r := region(Config{})
	a, _ := r.Alloc(16)
	tx := r.Begin(1)
	tx.Store64(a, 10)
	tx.Store64(a+8, 20)
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	r.NVM().Crash()
	v1, _ := r.Load64(0, a)
	v2, _ := r.Load64(0, a+8)
	if v1 != 10 || v2 != 20 {
		t.Errorf("committed values lost: %d %d", v1, v2)
	}
}

func TestAbortLeavesHomeUntouched(t *testing.T) {
	r := region(Config{})
	a, _ := r.Alloc(8)
	tx := r.Begin(1)
	tx.Store64(a, 42)
	tx.Abort()
	v, _ := r.Load64(0, a)
	if v != 0 {
		t.Errorf("aborted tx reached home location: %d", v)
	}
}

func TestEmptyCommitFree(t *testing.T) {
	r := region(Config{})
	before := r.NVM().Stats().Fences
	tx := r.Begin(1)
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if got := r.NVM().Stats().Fences; got != before {
		t.Errorf("empty commit paid %d fences", got-before)
	}
}

// TestSameValueWriteElidedWhenFixed: storing the value a word already
// holds logs nothing, so the transaction flushes no line.
func TestSameValueWriteElidedWhenFixed(t *testing.T) {
	r := region(Config{})
	a, _ := r.Alloc(8)
	tx := r.Begin(1)
	tx.Store64(a, 7)
	tx.Commit()
	r.NVM().ResetStats()
	for i := 0; i < 50; i++ {
		tx := r.Begin(1)
		tx.Store64(a, 7) // unchanged value
		tx.Commit()
	}
	if got := r.NVM().Stats().LinesFlushed; got != 0 {
		t.Errorf("flushed %d lines for no-op writes", got)
	}
}

func TestLogWrapsAround(t *testing.T) {
	cfg := Config{LogCapacity: 4, NVM: nvm.Config{Size: 1 << 20}}
	r, err := OpenRegion(cfg)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := r.Alloc(8)
	for i := 0; i < 20; i++ {
		tx := r.Begin(1)
		tx.Store64(a, uint64(i))
		if err := tx.Commit(); err != nil {
			t.Fatalf("commit %d: %v", i, err)
		}
	}
	v, _ := r.Load64(0, a)
	if v != 19 {
		t.Errorf("final value = %d", v)
	}
}

// --- recovery ---------------------------------------------------------------

func TestRecoverReplaysCommittedTx(t *testing.T) {
	r := region(Config{})
	a, _ := r.Alloc(16)
	// Commit normally once so the log machinery is warm.
	tx := r.Begin(1)
	tx.Store64(a, 1)
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash in the window after the log fence but before the
	// home updates persist: replay must restore the values.  We arrange
	// it by committing, then crashing, relying on the commit path's first
	// fence making the log durable; to isolate the window we rebuild the
	// home state by hand.
	tx = r.Begin(1)
	tx.Store64(a, 42)
	tx.Store64(a+8, 43)
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	// Full commit: values durable.
	r.NVM().Crash()
	v, _ := r.Load64(0, a)
	if v != 42 {
		t.Fatalf("committed value lost before recovery test even started: %d", v)
	}
	// Recovery on a clean region is a no-op.
	n, err := r.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Errorf("clean region replayed %d transactions", n)
	}
}

// crashingRegion builds a region, runs one committed tx whose home
// updates are then wiped (simulating the crash window between the log
// fence and the home fence), and returns it.
func crashingRegion(t *testing.T) (*Region, int) {
	t.Helper()
	r := region(Config{})
	a, _ := r.Alloc(16)
	tx := r.Begin(1)
	tx.Store64(a, 7)
	tx.Store64(a+8, 9)
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	// Wind the durable tail back to before this transaction and zero the
	// home words, reconstructing the exact durable image a crash after
	// the log fence (but before home persistence) leaves behind.
	if err := r.NVM().Store64(r.tailAddr, 0); err != nil {
		t.Fatal(err)
	}
	r.NVM().Store64(a, 0)
	r.NVM().Store64(a+8, 0)
	r.NVM().PersistAll()
	r.NVM().Crash()
	return r, a
}

func TestRecoverRestoresHomeLocations(t *testing.T) {
	r, a := crashingRegion(t)
	n, err := r.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("replayed %d transactions, want 1", n)
	}
	v1, _ := r.Load64(0, a)
	v2, _ := r.Load64(0, a+8)
	if v1 != 7 || v2 != 9 {
		t.Errorf("recovery restored %d,%d, want 7,9", v1, v2)
	}
	// Replay is idempotent.
	if n, _ := r.Recover(); n != 0 {
		t.Errorf("second recovery replayed %d transactions", n)
	}
}

func TestRecoverSkipsTornTx(t *testing.T) {
	r := region(Config{})
	a, _ := r.Alloc(8)
	// Forge a torn transaction: a commit record claiming 2 writes with
	// only 1 present (the other lost to the crash).
	r.mu.Lock()
	r.txSeq++
	txid := r.txSeq
	if err := r.logAppend(recKindWrite, a, 123, txid); err != nil {
		t.Fatal(err)
	}
	if err := r.logAppend(recKindCommit, 0, 2, txid); err != nil {
		t.Fatal(err)
	}
	r.mu.Unlock()
	r.NVM().Fence()
	r.NVM().Crash()
	n, err := r.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Errorf("torn transaction replayed")
	}
	if v, _ := r.Load64(0, a); v != 0 {
		t.Errorf("torn write reached home: %d", v)
	}
}

func TestRecoveryAfterWrap(t *testing.T) {
	cfg := Config{LogCapacity: 8, NVM: nvm.Config{Size: 1 << 20}}
	r, err := OpenRegion(cfg)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := r.Alloc(8)
	for i := 0; i < 30; i++ {
		tx := r.Begin(1)
		tx.Store64(a, uint64(i))
		if err := tx.Commit(); err != nil {
			t.Fatalf("commit %d: %v", i, err)
		}
	}
	r.NVM().Crash()
	if _, err := r.Recover(); err != nil {
		t.Fatal(err)
	}
	if v, _ := r.Load64(0, a); v != 29 {
		t.Errorf("post-wrap recovery value = %d, want 29", v)
	}
}
