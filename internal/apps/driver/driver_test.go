package driver

import (
	"errors"
	"sync"
	"testing"

	"deepmc/internal/apps/memcache"
	"deepmc/internal/apps/nstore"
	"deepmc/internal/apps/redis"
	"deepmc/internal/nvm"
	"deepmc/internal/pmem"
	"deepmc/internal/pmem/mnemosyne"
	"deepmc/internal/pmem/pmdk"
	"deepmc/internal/workload"
)

func memcacheKV(t *testing.T, tr pmem.Tracker) MemcacheKV {
	t.Helper()
	s, err := memcache.Open(memcache.Config{
		Buckets: 1 << 10,
		Region:  mnemosyne.Config{NVM: nvm.Config{Size: 64 << 20}, Tracker: tr},
	})
	if err != nil {
		t.Fatal(err)
	}
	return MemcacheKV{S: s}
}

func TestMemcacheWorkload(t *testing.T) {
	kv := memcacheKV(t, nil)
	if err := Preload(kv, 500); err != nil {
		t.Fatal(err)
	}
	for _, mix := range workload.MemslapMixes() {
		res, err := Run(kv, mix, 4, 500, 500)
		if err != nil {
			t.Fatalf("%s: %v", mix.Name, err)
		}
		if res.Ops != 2000 {
			t.Errorf("%s: ops = %d", mix.Name, res.Ops)
		}
	}
}

func TestMemcacheGetAfterSet(t *testing.T) {
	kv := memcacheKV(t, nil)
	if err := kv.Do(1, workload.Op{Kind: workload.OpInsert, Key: 7}); err != nil {
		t.Fatal(err)
	}
	v, ok, err := kv.S.Get(1, 7)
	if err != nil || !ok {
		t.Fatalf("get: ok=%v err=%v", ok, err)
	}
	if v[0] != 7 {
		t.Errorf("value = %v", v)
	}
}

func TestRedisWorkloadAllCommands(t *testing.T) {
	// One fresh database per command series, as redis-benchmark runs its
	// default suite (keys are typed by first use: counters, strings,
	// lists and sets must not share a key space).
	for _, cmd := range workload.RedisOps {
		db, err := redis.Open(redis.Config{
			Buckets: 1 << 10,
			Pool:    pmdk.Config{NVM: nvm.Config{Size: 64 << 20}},
		})
		if err != nil {
			t.Fatal(err)
		}
		kv := RedisKV{DB: db, Cmd: cmd}
		mix := workload.Mix{Name: cmd, Update: 100}
		if _, err := Run(kv, mix, 4, 200, 256); err != nil {
			t.Fatalf("%s: %v", cmd, err)
		}
	}
}

func TestRedisSemantics(t *testing.T) {
	db, err := redis.Open(redis.Config{Pool: pmdk.Config{NVM: nvm.Config{Size: 16 << 20}}})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Set(1, 5, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	v, ok, err := db.Get(1, 5)
	if err != nil || !ok || string(v[:5]) != "hello" {
		t.Errorf("GET = %q ok=%v err=%v", v[:5], ok, err)
	}
	for i := 0; i < 3; i++ {
		if _, err := db.Incr(1, 9); err != nil {
			t.Fatal(err)
		}
	}
	n, _ := db.Incr(1, 9)
	if n != 4 {
		t.Errorf("INCR = %d, want 4", n)
	}
	db.LPush(1, 2, []byte("a"))
	db.LPush(1, 2, []byte("b"))
	v1, ok, _ := db.LPop(1, 2)
	v2, ok2, _ := db.LPop(1, 2)
	_, ok3, _ := db.LPop(1, 2)
	if !ok || !ok2 || ok3 {
		t.Errorf("LPOP availability: %v %v %v", ok, ok2, ok3)
	}
	if v1[0] != 'b' || v2[0] != 'a' {
		t.Errorf("LIFO order broken: %c %c", v1[0], v2[0])
	}
	added, _ := db.SAdd(1, 3, 77)
	dup, _ := db.SAdd(1, 3, 77)
	if !added || dup {
		t.Errorf("SADD dedup broken: %v %v", added, dup)
	}
}

func TestRedisDurability(t *testing.T) {
	db, err := redis.Open(redis.Config{Pool: pmdk.Config{NVM: nvm.Config{Size: 16 << 20}}})
	if err != nil {
		t.Fatal(err)
	}
	db.Set(1, 11, []byte("crashme"))
	db.Pool().NVM().Crash()
	v, ok, err := db.Get(1, 11)
	if err != nil || !ok {
		t.Fatalf("post-crash GET: ok=%v err=%v", ok, err)
	}
	if string(v[:7]) != "crashme" {
		t.Errorf("post-crash value = %q", v[:7])
	}
}

func TestNStoreYCSB(t *testing.T) {
	e, err := nstore.Open(nstore.Config{NVM: nvm.Config{Size: 64 << 20}})
	if err != nil {
		t.Fatal(err)
	}
	kv := NStoreKV{E: e}
	if err := Preload(kv, 1000); err != nil {
		t.Fatal(err)
	}
	for _, mix := range workload.YCSBMixes() {
		if _, err := Run(kv, mix, 4, 300, 1000); err != nil {
			t.Fatalf("%s: %v", mix.Name, err)
		}
	}
}

func TestNStoreDurability(t *testing.T) {
	e, err := nstore.Open(nstore.Config{NVM: nvm.Config{Size: 16 << 20}})
	if err != nil {
		t.Fatal(err)
	}
	tup := make([]uint64, nstore.TupleWords)
	tup[0] = 999
	if err := e.Insert(1, 42, tup); err != nil {
		t.Fatal(err)
	}
	e.NVM().Crash()
	got, ok, err := e.Read(1, 42)
	if err != nil || !ok {
		t.Fatalf("post-crash read: ok=%v err=%v", ok, err)
	}
	if got[0] != 999 {
		t.Errorf("post-crash tuple = %v", got)
	}
}

func TestTrackedRunFindsNoFalseRaces(t *testing.T) {
	// Clients synchronize through the store's lock; the tracker's
	// acquire/release edges must keep lock-ordered accesses race-free.
	tr := pmem.NewCheckerTracker()
	kv := memcacheKV(t, tr)
	if err := Preload(kv, 100); err != nil {
		t.Fatal(err)
	}
	if _, err := Run(kv, workload.MemslapMixes()[0], 4, 200, 100); err != nil {
		t.Fatal(err)
	}
	// Every committed mnemosyne tx ends in a global fence, which orders
	// client threads; no warnings expected.
	rep := tr.C.Report()
	if len(rep.Warnings) != 0 {
		t.Errorf("tracker reported %d false races:\n%s", len(rep.Warnings), rep)
	}
}

var errTransient = errors.New("transient wire error")

// flakyKV fails every failEvery-th operation of each thread.
type flakyKV struct {
	mu        sync.Mutex
	attempts  map[int64]int // by thread
	failEvery int
}

func (f *flakyKV) Do(thread int64, op workload.Op) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.attempts == nil {
		f.attempts = make(map[int64]int)
	}
	f.attempts[thread]++
	if f.failEvery > 0 && f.attempts[thread]%f.failEvery == 0 {
		return errTransient
	}
	return nil
}

// TestRunStopsAtFirstError: Run makes one attempt per operation, so a
// failure fails the run.
func TestRunStopsAtFirstError(t *testing.T) {
	kv := &flakyKV{failEvery: 20}
	if _, err := Run(kv, workload.Mix{Read: 100}, 2, 20, 64); !errors.Is(err, errTransient) {
		t.Fatalf("Run returned %v, want the first operation failure", err)
	}
}

// TestRunDeterministicStreams: two runs over an engine that records the
// op stream issue identical per-client sequences.
func TestRunDeterministicStreams(t *testing.T) {
	record := func() map[int64][]workload.Op {
		rec := &recordingKV{ops: map[int64][]workload.Op{}}
		if _, err := Run(rec, workload.Mix{Read: 60, Update: 30, Insert: 10}, 3, 200, 128); err != nil {
			t.Fatal(err)
		}
		return rec.ops
	}
	a, b := record(), record()
	if len(a) != len(b) {
		t.Fatalf("client counts differ: %d vs %d", len(a), len(b))
	}
	for th, ops := range a {
		if len(ops) != len(b[th]) {
			t.Fatalf("client %d op counts differ: %d vs %d", th, len(ops), len(b[th]))
		}
		for i := range ops {
			if ops[i] != b[th][i] {
				t.Fatalf("client %d op %d diverged: %+v vs %+v", th, i, ops[i], b[th][i])
			}
		}
	}
}

func TestRunRejectsMalformedMix(t *testing.T) {
	if _, err := Run(&flakyKV{}, workload.Mix{Read: 50}, 1, 1, 64); err == nil {
		t.Fatal("Run accepted a mix summing to 50")
	}
}

type recordingKV struct {
	mu  sync.Mutex
	ops map[int64][]workload.Op
}

func (r *recordingKV) Do(thread int64, op workload.Op) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.ops[thread] = append(r.ops[thread], op)
	return nil
}
