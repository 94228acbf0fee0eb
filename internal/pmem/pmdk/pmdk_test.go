package pmdk

import (
	"testing"

	"deepmc/internal/nvm"
)

func testPool(cfg Config) *Pool {
	if cfg.NVM.Size == 0 {
		cfg.NVM = nvm.Config{Size: 1 << 20}
	}
	return Open(cfg)
}

func TestPersistSurvivesCrash(t *testing.T) {
	p := testPool(Config{})
	a, _ := p.AllocObject(64)
	p.Store64(0, a, 77)
	p.Persist(0, a, 8)
	p.NVM().Crash()
	v, _ := p.Load64(0, a)
	if v != 77 {
		t.Errorf("persisted value lost: %d", v)
	}
}

func TestUnpersistedStoreLost(t *testing.T) {
	p := testPool(Config{})
	a, _ := p.AllocObject(64)
	p.Store64(0, a, 77)
	p.NVM().Crash()
	v, _ := p.Load64(0, a)
	if v != 0 {
		t.Errorf("unpersisted store survived: %d", v)
	}
}

func TestTxCommitDurable(t *testing.T) {
	p := testPool(Config{})
	a, _ := p.AllocObject(64)
	tx := p.Begin(1)
	if err := tx.Add(a, 16); err != nil {
		t.Fatal(err)
	}
	tx.Store64(a, 11)
	tx.Store64(a+8, 22)
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	p.NVM().Crash()
	v1, _ := p.Load64(0, a)
	v2, _ := p.Load64(0, a+8)
	if v1 != 11 || v2 != 22 {
		t.Errorf("committed tx lost: %d %d", v1, v2)
	}
}

func TestTxAbortRollsBack(t *testing.T) {
	p := testPool(Config{})
	a, _ := p.AllocObject(64)
	p.Store64(0, a, 5)
	p.Persist(0, a, 8)
	tx := p.Begin(1)
	tx.Add(a, 8)
	tx.Store64(a, 99)
	if err := tx.Abort(); err != nil {
		t.Fatal(err)
	}
	v, _ := p.Load64(0, a)
	if v != 5 {
		t.Errorf("abort did not roll back: %d", v)
	}
}

func TestClosedTxRejected(t *testing.T) {
	p := testPool(Config{})
	a, _ := p.AllocObject(8)
	tx := p.Begin(1)
	tx.Commit()
	if err := tx.Store64(a, 1); err == nil {
		t.Error("store on committed tx must fail")
	}
	if err := tx.Commit(); err == nil {
		t.Error("double commit must fail")
	}
}

// TestEmptyTxSkipsCommitWhenFixed: a read-only transaction pays no
// fence.
func TestEmptyTxSkipsCommitWhenFixed(t *testing.T) {
	p := testPool(Config{})
	for i := 0; i < 100; i++ {
		tx := p.Begin(0)
		tx.Commit()
	}
	if got := p.NVM().Stats().Fences; got != 0 {
		t.Errorf("read-only transactions paid %d fences", got)
	}
}

// --- recovery ---------------------------------------------------------------

func TestRecoverNoopOnCleanPool(t *testing.T) {
	p := testPool(Config{})
	a, _ := p.AllocObject(16)
	tx := p.Begin(1)
	tx.Add(a, 16)
	tx.Store64(a, 1)
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	p.NVM().Crash()
	rolled, err := p.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if rolled {
		t.Error("clean pool rolled back")
	}
	if v, _ := p.Load64(0, a); v != 1 {
		t.Errorf("committed value disturbed: %d", v)
	}
}

func TestRecoverRollsBackCrashedTx(t *testing.T) {
	p := testPool(Config{})
	a, _ := p.AllocObject(16)
	// Establish a durable pre-state.
	p.Store64(0, a, 10)
	p.Store64(0, a+8, 20)
	p.Persist(0, a, 16)
	// Start a transaction, mutate, and crash before commit.  The undo
	// entries are durable (TX_ADD fences them); the mutations may or may
	// not have reached the medium — force the worst case by persisting
	// them, then crashing without commit.
	tx := p.Begin(1)
	if err := tx.Add(a, 16); err != nil {
		t.Fatal(err)
	}
	tx.Store64(a, 111)
	tx.Store64(a+8, 222)
	p.NVM().Flush(a, 16)
	p.NVM().Fence() // torn mutation is now durable, commit never happens
	p.NVM().Crash()

	rolled, err := p.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if !rolled {
		t.Fatal("crashed transaction not detected")
	}
	v1, _ := p.Load64(0, a)
	v2, _ := p.Load64(0, a+8)
	if v1 != 10 || v2 != 20 {
		t.Errorf("rollback restored %d,%d, want 10,20", v1, v2)
	}
	// Idempotent.
	rolled, _ = p.Recover()
	if rolled {
		t.Error("second recovery rolled back again")
	}
}

func TestRecoverSurvivesDoubleCrash(t *testing.T) {
	p := testPool(Config{})
	a, _ := p.AllocObject(8)
	p.Store64(0, a, 5)
	p.Persist(0, a, 8)
	tx := p.Begin(1)
	tx.Add(a, 8)
	tx.Store64(a, 99)
	p.NVM().Flush(a, 8)
	p.NVM().Fence()
	p.NVM().Crash()
	// Crash again during recovery's own window: recovery is restartable
	// because the log slot stays active until the rollback is durable.
	if _, err := p.Recover(); err != nil {
		t.Fatal(err)
	}
	p.NVM().Crash()
	if _, err := p.Recover(); err != nil {
		t.Fatal(err)
	}
	if v, _ := p.Load64(0, a); v != 5 {
		t.Errorf("value after double-crash recovery = %d, want 5", v)
	}
}

func TestAbortRetiresLog(t *testing.T) {
	p := testPool(Config{})
	a, _ := p.AllocObject(8)
	p.Store64(0, a, 3)
	p.Persist(0, a, 8)
	tx := p.Begin(1)
	tx.Add(a, 8)
	tx.Store64(a, 77)
	if err := tx.Abort(); err != nil {
		t.Fatal(err)
	}
	p.NVM().Crash()
	if rolled, _ := p.Recover(); rolled {
		t.Error("aborted tx left an active undo log")
	}
	if v, _ := p.Load64(0, a); v != 3 {
		t.Errorf("abort result = %d, want 3", v)
	}
}
